package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// TenantCounters is one tenant's admission/scheduling telemetry. All
// fields are atomics so the service updates them without a lock on the
// submit and worker paths.
type TenantCounters struct {
	// Admitted counts jobs accepted for this tenant (queued or served
	// straight from the result cache).
	Admitted atomic.Int64
	// Shed counts jobs refused with a per-tenant 429 (quota, rate limit,
	// or global capacity).
	Shed atomic.Int64
	// Done counts jobs that reached a terminal state.
	Done atomic.Int64
	// Queued and Running gauge the tenant's current queue occupancy.
	Queued  atomic.Int64
	Running atomic.Int64

	weightBits atomic.Uint64 // float64 bits of the configured fair weight
}

// SetWeight records the tenant's configured fair-share weight for the
// exposition gauges.
func (c *TenantCounters) SetWeight(w float64) { c.weightBits.Store(math.Float64bits(w)) }

// Weight returns the recorded fair-share weight.
func (c *TenantCounters) Weight() float64 { return math.Float64frombits(c.weightBits.Load()) }

// TenantSet is the per-tenant labeled metric family store: lazily
// registered counters per tenant name, rendered as Prometheus families
// with a tenant label by Encode. Unlike the dense-ID Recorder (built for
// the allocation-free engine hot path), tenants are strings — but they are
// touched once per job, not once per event, so a lock + map lookup is
// fine.
type TenantSet struct {
	mu sync.RWMutex
	m  map[string]*TenantCounters
}

// NewTenantSet returns an empty set.
func NewTenantSet() *TenantSet {
	return &TenantSet{m: make(map[string]*TenantCounters)}
}

// Tenant returns (registering on first touch) the counters for a tenant
// exposition name.
func (s *TenantSet) Tenant(name string) *TenantCounters {
	s.mu.RLock()
	c, ok := s.m[name]
	s.mu.RUnlock()
	if ok {
		return c
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok = s.m[name]; !ok {
		c = &TenantCounters{}
		s.m[name] = c
	}
	return c
}

// names returns the registered tenant names, sorted for stable exposition.
func (s *TenantSet) names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.m))
	for n := range s.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Each calls fn for every registered tenant in sorted name order.
func (s *TenantSet) Each(fn func(name string, c *TenantCounters)) {
	for _, n := range s.names() {
		s.mu.RLock()
		c := s.m[n]
		s.mu.RUnlock()
		fn(n, c)
	}
}

// Encode writes the per-tenant families, one sample per tenant labeled
// tenant="name": admitted/shed/done counters, queued/running gauges, the
// configured weight, and each tenant's share of all completed jobs (the
// fairness observable the loadgen soak asserts on). An empty set writes
// nothing.
func (s *TenantSet) Encode(e *Encoder) {
	var names []string
	var cs []*TenantCounters
	var totalDone int64
	s.Each(func(name string, c *TenantCounters) {
		names = append(names, name)
		cs = append(cs, c)
		totalDone += c.Done.Load()
	})
	if len(names) == 0 {
		return
	}
	for _, f := range []struct {
		name, help string
		kind       Kind
		value      func(c *TenantCounters) *atomic.Int64
	}{
		{"mobicd_tenant_jobs_admitted_total", "Jobs admitted per tenant.", Counter,
			func(c *TenantCounters) *atomic.Int64 { return &c.Admitted }},
		{"mobicd_tenant_jobs_shed_total", "Jobs shed with a per-tenant 429 (quota, rate or capacity).", Counter,
			func(c *TenantCounters) *atomic.Int64 { return &c.Shed }},
		{"mobicd_tenant_jobs_done_total", "Jobs finished per tenant (any terminal state).", Counter,
			func(c *TenantCounters) *atomic.Int64 { return &c.Done }},
		{"mobicd_tenant_jobs_queued", "Jobs currently queued per tenant.", Gauge,
			func(c *TenantCounters) *atomic.Int64 { return &c.Queued }},
		{"mobicd_tenant_jobs_running", "Jobs currently executing per tenant.", Gauge,
			func(c *TenantCounters) *atomic.Int64 { return &c.Running }},
	} {
		e.Family(f.name, f.help, f.kind)
		for i, c := range cs {
			e.Int(f.name, f.value(c).Load(), "tenant", names[i])
		}
	}
	for _, f := range []struct {
		name, help string
		value      func(c *TenantCounters) float64
	}{
		{"mobicd_tenant_weight", "Configured fair-share weight per tenant.", (*TenantCounters).Weight},
		{"mobicd_tenant_done_share", "Tenant's fraction of all completed jobs.", func(c *TenantCounters) float64 {
			if totalDone == 0 {
				return 0
			}
			return float64(c.Done.Load()) / float64(totalDone)
		}},
	} {
		e.Family(f.name, f.help, Gauge)
		for i, c := range cs {
			e.Float(f.name, f.value(c), "tenant", names[i])
		}
	}
}
