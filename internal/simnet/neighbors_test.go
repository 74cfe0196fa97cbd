package simnet

import (
	"math"
	"slices"
	"testing"

	"mobic/internal/cluster"
	"mobic/internal/core"
	"mobic/internal/geom"
	"mobic/internal/obs"
	"mobic/internal/trace"
)

// isolatedNet builds five static nodes spaced far beyond the transmission
// range, so node 0 hears only the hellos a test hands up with hear. Timeout
// events are appended to *timeouts.
func isolatedNet(t *testing.T, alg cluster.Algorithm, timeouts *[]trace.Event) (net *Network, hear func(tx int32, now, pr float64)) {
	t.Helper()
	net, err := New(Config{
		N: 5, Area: geom.NewRect(5000, 10), Duration: 100, Seed: 1, Algorithm: alg,
		Mobility: &lineMobility{spacing: 1000, y: 5}, TxRange: 100,
		Observer: func(ev trace.Event) {
			if ev.Kind == trace.KindTimeout {
				*timeouts = append(*timeouts, ev)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, func(tx int32, now, pr float64) {
		adv := advertisement{weight: cluster.Weight{Value: float64(tx), ID: tx}, role: cluster.RoleHead, head: tx}
		net.applyHello(tx, net.nodes[0], now, pr, adv)
	}
}

func TestNeighborTableSortedExpire(t *testing.T) {
	var timeouts []trace.Event
	net, hear := isolatedNet(t, cluster.MOBIC, &timeouts)
	rn := net.nodes[0]
	// Neighbors 4 and 2 last heard at t=2, neighbors 3 and 1 at t=6.
	hear(4, 0, 1e-9)
	hear(3, 0, 1e-9)
	hear(2, 2, 2e-9)
	hear(4, 2, 1e-9)
	hear(1, 6, 1e-9)
	hear(3, 6, 1e-9)
	if want := []int32{1, 2, 3, 4}; !slices.Equal(rn.nbrs.ids, want) {
		t.Fatalf("ids = %v, want %v", rn.nbrs.ids, want)
	}
	if e := rn.nbrs.recs[1]; e.lastHeard != 2 || e.head != 2 || rn.nbrs.headCount() != 4 {
		t.Errorf("record of neighbor 2 = %+v, head count %d; want lastHeard 2, head 2, 4 heads", e, rn.nbrs.headCount())
	}

	// At t=8 with TP=3 (the default) neighbors 2 and 4 expire, in order.
	// Only neighbor 3 survives with two receptions, at equal power: M is 0.
	net.tick(rn, 8)
	if want := []int32{1, 3}; !slices.Equal(rn.nbrs.ids, want) || net.lastM[0] != 0 {
		t.Errorf("after purge: ids %v, M %v; want %v, 0", rn.nbrs.ids, net.lastM[0], want)
	}
	if len(timeouts) != 2 || timeouts[0].Other != 2 || timeouts[1].Other != 4 {
		t.Errorf("timeouts = %+v, want neighbors 2 then 4", timeouts)
	}
	// A neighbor heard again after expiry starts a fresh reception history.
	hear(4, 9, 4e-9)
	if _, ok := rn.nbrs.recs[2].link.Rel(); ok {
		t.Error("re-heard neighbor 4 is eligible after one reception")
	}

	// A crash forgets the whole table.
	net.crash(rn, 10)
	if len(rn.nbrs.ids) != 0 || len(rn.nbrs.recs) != 0 {
		t.Errorf("after crash: ids %v, %d records; want an empty table", rn.nbrs.ids, len(rn.nbrs.recs))
	}
}

func TestNeighborTableRejectsBadPower(t *testing.T) {
	var timeouts []trace.Event
	net, hear := isolatedNet(t, cluster.MOBIC, &timeouts)
	reg := obs.NewRegistry()
	net.obsRec = reg
	rn := net.nodes[0]
	bad := []float64{0, -1e-9, math.NaN(), math.Inf(1)}
	for i, pr := range bad {
		hear(3, float64(i), pr)
	}
	if len(rn.nbrs.ids) != 0 || len(rn.nbrs.recs) != 0 || reg.Counter(obs.NetNeighborAdds) != 0 {
		t.Fatalf("after bad powers: ids %v, %d records, %d adds; want an empty table",
			rn.nbrs.ids, len(rn.nbrs.recs), reg.Counter(obs.NetNeighborAdds))
	}

	// One valid power creates exactly one record with one reception.
	hear(3, 5, 1e-9)
	if !slices.Equal(rn.nbrs.ids, []int32{3}) || len(rn.nbrs.recs) != 1 || reg.Counter(obs.NetNeighborAdds) != 1 {
		t.Fatalf("after a valid power: ids %v, %d records, %d adds; want one record for neighbor 3",
			rn.nbrs.ids, len(rn.nbrs.recs), reg.Counter(obs.NetNeighborAdds))
	}
	if _, ok := rn.nbrs.recs[0].link.Rel(); ok {
		t.Error("neighbor is eligible after one valid reception")
	}

	// Bad powers heard from a known neighbor leave its record untouched.
	before := rn.nbrs.recs[0]
	for i, pr := range bad {
		hear(3, float64(6+i), pr)
	}
	if rn.nbrs.recs[0] != before {
		t.Errorf("bad powers changed the record: %+v, want %+v", rn.nbrs.recs[0], before)
	}
	hear(3, 10, 4e-9)
	want, _ := core.RelativeMobility(1e-9, 4e-9)
	if got, ok := rn.nbrs.recs[0].link.Rel(); !ok || got != want {
		t.Errorf("Rel after two valid powers = %v, %v; want %v, true", got, ok, want)
	}
}

func TestAggregateEWMA(t *testing.T) {
	alg := cluster.MOBIC
	alg.EWMAAlpha = 0.5
	var timeouts []trace.Event
	net, hear := isolatedNet(t, alg, &timeouts)
	rn := net.nodes[0]
	// First aggregate: one neighbor at +3.01 dB primes the smoother.
	hear(1, 0, 1e-9)
	hear(1, 2, 2e-9)
	db := 10 * math.Log10(2)
	first := net.aggregateMobility(rn)
	if math.Abs(first-db*db) > 1e-9 {
		t.Fatalf("first smoothed aggregate = %v, want %v", first, db*db)
	}
	// The neighborhood goes quiet: raw M drops to 0, smoothed decays halfway.
	hear(1, 4, 2e-9)
	if second := net.aggregateMobility(rn); math.Abs(second-first/2) > 1e-9 {
		t.Errorf("smoothed aggregate = %v, want %v", second, first/2)
	}
	// A crash resets the smoother along with the table.
	net.crash(rn, 5)
	if got := net.aggregateMobility(rn); got != 0 {
		t.Errorf("post-crash aggregate = %v, want 0", got)
	}
}
