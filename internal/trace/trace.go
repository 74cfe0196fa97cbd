// Package trace is a lightweight structured event log for the simulator —
// the role ns-2's trace file played. It is a bounded ring buffer: recording
// never allocates once warm and never blocks the simulation; when the buffer
// wraps, the oldest events are dropped and counted.
package trace

import (
	"fmt"
	"strings"
)

// Kind classifies an event.
type Kind uint8

// Event kinds.
const (
	// KindBroadcast is a hello transmission.
	KindBroadcast Kind = iota + 1
	// KindDeliver is a hello reception.
	KindDeliver
	// KindDrop is a hello lost to the loss model.
	KindDrop
	// KindRoleChange is a clustering role transition.
	KindRoleChange
	// KindHeadChange is a clusterhead affiliation change.
	KindHeadChange
	// KindContention is a head-head contention start or resolution.
	KindContention
	// KindTimeout is a neighbor-table purge.
	KindTimeout
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBroadcast:
		return "broadcast"
	case KindDeliver:
		return "deliver"
	case KindDrop:
		return "drop"
	case KindRoleChange:
		return "role"
	case KindHeadChange:
		return "head"
	case KindContention:
		return "contention"
	case KindTimeout:
		return "timeout"
	default:
		return "unknown"
	}
}

// Event is one trace record.
type Event struct {
	// T is the simulated time in seconds.
	T float64
	// Kind classifies the event.
	Kind Kind
	// Node is the primary node (transmitter, role-changer, ...).
	Node int32
	// Other is the secondary node (receiver, rival head, ...; -1 if none).
	Other int32
	// Value carries a kind-specific number (RxPr, new role, new head...).
	Value float64
}

// String renders the event as a single trace line.
func (e Event) String() string {
	return fmt.Sprintf("%10.3f %-10s node=%d other=%d value=%g",
		e.T, e.Kind, e.Node, e.Other, e.Value)
}

// Log is a fixed-capacity ring buffer of events. The zero value is a
// disabled log that drops everything; construct with New to record.
type Log struct {
	buf     []Event
	next    int
	wrapped bool
	dropped uint64
}

// New returns a log holding the most recent `capacity` events. A
// non-positive capacity returns a disabled log.
func New(capacity int) *Log {
	if capacity <= 0 {
		return &Log{}
	}
	return &Log{buf: make([]Event, 0, capacity)}
}

// Enabled reports whether the log records anything.
func (l *Log) Enabled() bool { return l != nil && cap(l.buf) > 0 }

// Record appends an event, evicting the oldest when full. Safe to call on a
// nil or disabled log.
func (l *Log) Record(ev Event) {
	if l == nil || cap(l.buf) == 0 {
		return
	}
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, ev)
		return
	}
	l.buf[l.next] = ev
	l.next = (l.next + 1) % cap(l.buf)
	l.wrapped = true
	l.dropped++
}

// Dropped returns the number of events evicted due to wrapping.
func (l *Log) Dropped() uint64 { return l.dropped }

// Len returns the number of retained events.
func (l *Log) Len() int { return len(l.buf) }

// Events returns the retained events in chronological order. The slice is
// freshly allocated.
func (l *Log) Events() []Event {
	if l == nil || len(l.buf) == 0 {
		return nil
	}
	out := make([]Event, 0, len(l.buf))
	if l.wrapped {
		out = append(out, l.buf[l.next:]...)
		out = append(out, l.buf[:l.next]...)
	} else {
		out = append(out, l.buf...)
	}
	return out
}

// Dump renders all retained events, one per line.
func (l *Log) Dump() string {
	var b strings.Builder
	for _, ev := range l.Events() {
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// CountKind returns how many retained events have the given kind.
func (l *Log) CountKind(k Kind) int {
	n := 0
	for _, ev := range l.Events() {
		if ev.Kind == k {
			n++
		}
	}
	return n
}
