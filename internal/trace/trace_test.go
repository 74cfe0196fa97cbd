package trace

import (
	"strings"
	"testing"
)

func TestZeroValueAndNilAreSafe(t *testing.T) {
	var l *Log
	l.Record(Event{T: 1}) // must not panic
	if l.Events() != nil {
		t.Error("nil log should have no events")
	}

	var zero Log
	zero.Record(Event{T: 1})
	if zero.Len() != 0 {
		t.Error("zero-value log should drop everything")
	}
	if zero.Enabled() {
		t.Error("zero-value log should report disabled")
	}
}

func TestNewNonPositiveCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		l := New(c)
		l.Record(Event{T: 1})
		if l.Len() != 0 || l.Enabled() {
			t.Errorf("capacity %d should be disabled", c)
		}
	}
}

func TestRecordAndOrder(t *testing.T) {
	l := New(10)
	for i := 0; i < 5; i++ {
		l.Record(Event{T: float64(i), Kind: KindBroadcast, Node: int32(i), Other: -1})
	}
	evs := l.Events()
	if len(evs) != 5 {
		t.Fatalf("Len = %d, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.T != float64(i) {
			t.Errorf("event %d out of order: T=%v", i, ev.T)
		}
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	l := New(3)
	for i := 0; i < 7; i++ {
		l.Record(Event{T: float64(i)})
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("Len = %d, want 3", len(evs))
	}
	want := []float64{4, 5, 6}
	for i, ev := range evs {
		if ev.T != want[i] {
			t.Errorf("event %d T = %v, want %v (chronological after wrap)", i, ev.T, want[i])
		}
	}
	if l.Dropped() != 4 {
		t.Errorf("Dropped = %d, want 4", l.Dropped())
	}
}

func TestCountKind(t *testing.T) {
	l := New(10)
	l.Record(Event{Kind: KindDeliver})
	l.Record(Event{Kind: KindDeliver})
	l.Record(Event{Kind: KindDrop})
	if got := l.CountKind(KindDeliver); got != 2 {
		t.Errorf("CountKind(deliver) = %d, want 2", got)
	}
	if got := l.CountKind(KindTimeout); got != 0 {
		t.Errorf("CountKind(timeout) = %d, want 0", got)
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindBroadcast:  "broadcast",
		KindDeliver:    "deliver",
		KindDrop:       "drop",
		KindRoleChange: "role",
		KindHeadChange: "head",
		KindContention: "contention",
		KindTimeout:    "timeout",
		Kind(99):       "unknown",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

func TestDump(t *testing.T) {
	l := New(5)
	l.Record(Event{T: 1.5, Kind: KindBroadcast, Node: 3, Other: -1, Value: 0})
	s := l.Dump()
	if !strings.Contains(s, "broadcast") || !strings.Contains(s, "node=3") {
		t.Errorf("Dump output unexpected:\n%s", s)
	}
}
