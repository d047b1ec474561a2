package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
)

// EventKind classifies a trace record.
type EventKind uint8

// Event kinds. Args are per-kind (documented on each constant); Note
// carries preformatted detail the producer only builds when a trace is
// attached.
const (
	// EvSegRegLoad is a MOV to a segment register. Arg0 = segment
	// register number, Arg1 = selector raw value.
	EvSegRegLoad EventKind = iota + 1
	// EvDescInstall is a descriptor written into the kernel LDT
	// (a cash_modify_ldt or modify_ldt entry). Arg0 = LDT index,
	// Arg1 = segment base.
	EvDescInstall
	// EvDescEvict is a cached descriptor's index recycled onto the
	// user-space free list (the 3-slot cache overflowed or was raided by
	// an allocation). Arg0 = LDT index.
	EvDescEvict
	// EvLDTAlloc is one segment allocation request. Arg0 = LDT index
	// (0 when exhausted), Arg1 = segment base; Note says which path
	// served it (cache-hit, call-gate, modify_ldt, exhausted).
	EvLDTAlloc
	// EvLDTFree is one segment deallocation. Arg0 = LDT index.
	EvLDTFree
	// EvFault is a run ending in a fault (#GP, #PF, software check,
	// watchdog, transient). Arg0 = vm fault kind, Arg1 = instruction
	// index; Note is the fault text.
	EvFault
	// EvRetry is a resilient-server retry of a transient kernel failure.
	// Arg0 = request index, Arg1 = attempt number.
	EvRetry
	// EvShed is a refused request. Arg0 = request index; Note says why
	// (load shedding window or retries exhausted).
	EvShed
	// EvDegrade is the server entering flat-segment degraded mode
	// (§3.4). Arg0 = request index.
	EvDegrade
	// EvRearm is the server leaving degraded mode after a clean probe.
	// Arg0 = request index.
	EvRearm
)

func (k EventKind) String() string {
	switch k {
	case EvSegRegLoad:
		return "seg-load"
	case EvDescInstall:
		return "desc-install"
	case EvDescEvict:
		return "desc-evict"
	case EvLDTAlloc:
		return "ldt-alloc"
	case EvLDTFree:
		return "ldt-free"
	case EvFault:
		return "fault"
	case EvRetry:
		return "retry"
	case EvShed:
		return "shed"
	case EvDegrade:
		return "degrade"
	case EvRearm:
		return "rearm"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one structured trace record.
type Event struct {
	Seq  uint64    `json:"seq"` // emission order, starting at 1
	Kind EventKind `json:"kind"`
	Arg0 uint64    `json:"arg0"`
	Arg1 uint64    `json:"arg1"`
	Note string    `json:"note,omitempty"`
}

func (e Event) String() string {
	s := fmt.Sprintf("%6d %-12s a0=%-6d a1=%-10d", e.Seq, e.Kind, e.Arg0, e.Arg1)
	if e.Note != "" {
		s += " " + e.Note
	}
	return s
}

// DefaultTraceCapacity is the ring size used when a capacity of 0 is
// requested.
const DefaultTraceCapacity = 4096

// Trace is a bounded ring buffer of events. When full, the oldest
// records are overwritten and counted as dropped. All methods are safe
// on a nil *Trace — Emit on nil is a no-op — so producers hold a plain
// field and hot paths pay one nil check while tracing is off.
type Trace struct {
	mu      sync.Mutex
	buf     []Event
	start   int // index of the oldest record
	n       int // records currently held
	seq     uint64
	dropped uint64
}

// NewTrace returns a trace holding up to capacity events (0 means
// DefaultTraceCapacity).
func NewTrace(capacity int) *Trace {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Trace{buf: make([]Event, capacity)}
}

// Enabled reports whether events emitted here are recorded. Producers
// that must format a Note should guard the formatting with it.
func (t *Trace) Enabled() bool { return t != nil }

// Emit appends one event, assigning its sequence number. No-op on nil.
func (t *Trace) Emit(kind EventKind, arg0, arg1 uint64, note string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	e := Event{Seq: t.seq, Kind: kind, Arg0: arg0, Arg1: arg1, Note: note}
	if t.n < len(t.buf) {
		t.buf[(t.start+t.n)%len(t.buf)] = e
		t.n++
		return
	}
	t.buf[t.start] = e
	t.start = (t.start + 1) % len(t.buf)
	t.dropped++
}

// Events returns the retained records, oldest first. Nil-safe.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	return out
}

// Len returns how many records are retained. Nil-safe.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many records were overwritten. Nil-safe.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Drain returns the retained records, oldest first, and clears the
// buffer (sequence numbering continues). Nil-safe.
func (t *Trace) Drain() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, t.n)
	for i := 0; i < t.n; i++ {
		out[i] = t.buf[(t.start+i)%len(t.buf)]
	}
	t.start, t.n = 0, 0
	return out
}

// Format renders the trace as text: a header with totals, then one line
// per retained event. Nil-safe (renders an empty trace).
func (t *Trace) Format() string {
	events := t.Events()
	var b strings.Builder
	fmt.Fprintf(&b, "EVENTS — %d recorded, %d dropped (ring capacity %d)\n",
		len(events), t.Dropped(), t.capacity())
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the retained events as an indented JSON array. Nil-safe.
func (t *Trace) JSON() ([]byte, error) {
	events := t.Events()
	if events == nil {
		events = []Event{}
	}
	return json.MarshalIndent(struct {
		Dropped uint64  `json:"dropped"`
		Events  []Event `json:"events"`
	}{t.Dropped(), events}, "", "  ")
}

func (t *Trace) capacity() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}
