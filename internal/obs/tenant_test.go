package obs

import (
	"strings"
	"testing"
)

func TestTenantSetExposition(t *testing.T) {
	s := NewTenantSet()

	// Empty set renders nothing — a single-tenant daemon's /metrics is
	// unchanged until the first tenant is touched.
	var empty strings.Builder
	s.Encode(NewEncoder(&empty))
	if empty.Len() != 0 {
		t.Fatalf("empty set wrote %q", empty.String())
	}

	a := s.Tenant("alpha")
	a.Admitted.Add(5)
	a.Done.Add(3)
	a.Queued.Add(2)
	a.SetWeight(4)
	b := s.Tenant("beta")
	b.Admitted.Add(2)
	b.Done.Add(1)
	b.Shed.Add(7)
	b.SetWeight(1)

	// Same pointer on re-touch: counters accumulate per tenant.
	if s.Tenant("alpha") != a {
		t.Fatal("Tenant is not idempotent")
	}

	var buf strings.Builder
	s.Encode(NewEncoder(&buf))
	out := buf.String()
	for _, w := range []string{
		`mobicd_tenant_jobs_admitted_total{tenant="alpha"} 5`,
		`mobicd_tenant_jobs_admitted_total{tenant="beta"} 2`,
		`mobicd_tenant_jobs_shed_total{tenant="beta"} 7`,
		`mobicd_tenant_jobs_queued{tenant="alpha"} 2`,
		`mobicd_tenant_weight{tenant="alpha"} 4`,
		`mobicd_tenant_done_share{tenant="alpha"} 0.75`,
		`mobicd_tenant_done_share{tenant="beta"} 0.25`,
		"# TYPE mobicd_tenant_jobs_admitted_total counter",
		"# TYPE mobicd_tenant_jobs_queued gauge",
	} {
		if !strings.Contains(out, w) {
			t.Errorf("exposition missing %q:\n%s", w, out)
		}
	}

	// Tenants render in sorted name order for stable scrapes.
	if ia, ib := strings.Index(out, `{tenant="alpha"}`), strings.Index(out, `{tenant="beta"}`); ia > ib {
		t.Error("tenants not in sorted order")
	}
}

func TestTenantSetEach(t *testing.T) {
	s := NewTenantSet()
	s.Tenant("b").Admitted.Add(1)
	s.Tenant("a").Admitted.Add(2)
	var order []string
	s.Each(func(name string, c *TenantCounters) { order = append(order, name) })
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("Each order = %v, want [a b]", order)
	}
}
