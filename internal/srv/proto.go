// Package srv is the network serving front end: a TCP server that puts
// a wire protocol in front of serve.Engine, with the robustness
// envelope a real service needs — a bounded worker pool feeding the
// Engine's admission control, per-client token-bucket quotas,
// per-request deadlines propagated into the simulated machine's
// cancellation path, typed over-capacity responses with retry-after
// hints, slow-client write timeouts, per-connection panic isolation,
// deterministic wire-level chaos injection, and a graceful
// drain/shutdown state machine.
//
// The protocol is deliberately simple and versioned: length-prefixed
// binary frames carrying a fixed header (version, message type, request
// id, deadline) and a JSON body. Requests on one connection are
// multiplexed — a client may pipeline many requests and responses
// return tagged with the request id, possibly out of order.
package srv

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"cash/internal/core"
)

// ProtoVersion is the wire protocol version this package speaks. A
// frame with any other version is answered with CodeBadVersion and the
// connection is closed.
const ProtoVersion = 1

// DefaultMaxFrameBytes bounds a frame body unless Config overrides it.
const DefaultMaxFrameBytes = 4 << 20

// headerLen is the fixed frame header: version(1) type(1) id(8)
// deadline-millis(4).
const headerLen = 1 + 1 + 8 + 4

// Message types. Requests are client→server, responses server→client.
const (
	// TBuild compiles a program and reports its static properties.
	TBuild uint8 = 1
	// TRun compiles (served from the artifact cache) and executes a
	// program once, reporting the run outcome.
	TRun uint8 = 2
	// TCompare evaluates a program under GCC, BCC and Cash.
	TCompare uint8 = 3
	// TTable regenerates one registered result table.
	TTable uint8 = 4

	// TResult carries the successful response body for the request type.
	TResult uint8 = 16
	// TError carries an ErrorResponse.
	TError uint8 = 17
	// TGoAway is the last frame of a graceful close. Its GoAway body
	// names the last request id the server read on the connection;
	// every request up to it has been answered, and none after it will
	// be.
	TGoAway uint8 = 18
)

// Typed error codes carried by ErrorResponse.
const (
	// CodeOverCapacity: the worker queue is full; retry after the hint.
	CodeOverCapacity = "over_capacity"
	// CodeQuota: the connection's token bucket is empty; retry after the
	// hint.
	CodeQuota = "quota_exhausted"
	// CodeDeadline: the request's deadline expired before it finished.
	CodeDeadline = "deadline_exceeded"
	// CodeShutdown: the server is draining or the engine is closed; the
	// request was not (or could not be) served.
	CodeShutdown = "shutting_down"
	// CodeCanceled: the request was canceled mid-flight (hard drain).
	CodeCanceled = "canceled"
	// CodeBadRequest: the request could not be parsed or compiled.
	CodeBadRequest = "bad_request"
	// CodeBadVersion: the frame's protocol version is not spoken here.
	CodeBadVersion = "bad_version"
	// CodeInternal: the handler failed unexpectedly (including a
	// recovered panic). The connection survives.
	CodeInternal = "internal"
)

// header is the fixed preamble of every frame.
type header struct {
	Version uint8
	Type    uint8
	ID      uint64
	// DeadlineMillis is the client's per-request budget; 0 means no
	// deadline. Ignored in responses.
	DeadlineMillis uint32
}

// WireOptions is the serializable subset of core.Options a remote
// client may set. Option fields that carry process-local state (event
// traces) deliberately have no wire form.
type WireOptions struct {
	SegRegs         int      `json:"seg_regs,omitempty"`
	SkipReadChecks  bool     `json:"skip_read_checks,omitempty"`
	UseBoundInstr   bool     `json:"use_bound_instr,omitempty"`
	WithoutCallGate bool     `json:"without_call_gate,omitempty"`
	ElectricFence   bool     `json:"electric_fence,omitempty"`
	Passes          []string `json:"passes,omitempty"`
	StepLimit       uint64   `json:"step_limit,omitempty"`
}

// Options converts the wire form into build options.
func (w WireOptions) Options() core.Options {
	return core.Options{
		SegRegs:         w.SegRegs,
		SkipReadChecks:  w.SkipReadChecks,
		UseBoundInstr:   w.UseBoundInstr,
		WithoutCallGate: w.WithoutCallGate,
		ElectricFence:   w.ElectricFence,
		Passes:          w.Passes,
		StepLimit:       w.StepLimit,
	}
}

// ParseMode maps a wire strategy name onto a compiler mode. Any
// registered strategy is accepted; empty defaults to cash.
func ParseMode(s string) (core.Mode, error) {
	if s == "" {
		return core.ModeCash, nil
	}
	for _, name := range core.StrategyNames() {
		if s == name {
			return core.Mode(s), nil
		}
	}
	return "", fmt.Errorf("unknown strategy %q (want one of %v)", s, core.StrategyNames())
}

// BuildRequest asks for a compilation.
type BuildRequest struct {
	Source  string      `json:"source"`
	Mode    string      `json:"mode"`
	Options WireOptions `json:"options"`
}

// BuildResponse reports the compiled artifact's static properties.
type BuildResponse struct {
	Mode     string            `json:"mode"`
	CodeSize int               `json:"code_size"`
	Stats    map[string]uint64 `json:"stats,omitempty"`
}

// RunRequest asks for one execution of a program. Requests are
// content-addressed server-side: identical (source, mode, options)
// triples share one compiled artifact and, for deterministic runs, one
// memoised result.
type RunRequest struct {
	Source  string      `json:"source"`
	Mode    string      `json:"mode"`
	Options WireOptions `json:"options"`
}

// RunResponse is the outcome of one execution. A detected array bound
// violation is a successful detection, not a transport error, so it
// rides in the result.
type RunResponse struct {
	Cycles    uint64  `json:"cycles"`
	ExitCode  int32   `json:"exit_code"`
	Output    []int32 `json:"output,omitempty"`
	HeapSpan  uint32  `json:"heap_span,omitempty"`
	Violation string  `json:"violation,omitempty"`
}

// CompareRequest asks for the three-mode evaluation of one program.
type CompareRequest struct {
	Name    string      `json:"name"`
	Source  string      `json:"source"`
	Options WireOptions `json:"options"`
}

// CompareModeNumbers is one mode's column of a comparison.
type CompareModeNumbers struct {
	Cycles   uint64 `json:"cycles"`
	CodeSize int    `json:"code_size"`
}

// CompareResponse is one row of the paper's tables, over the wire.
type CompareResponse struct {
	Name            string             `json:"name"`
	GCC             CompareModeNumbers `json:"gcc"`
	BCC             CompareModeNumbers `json:"bcc"`
	Cash            CompareModeNumbers `json:"cash"`
	CashOverheadPct float64            `json:"cash_overhead_pct"`
	BCCOverheadPct  float64            `json:"bcc_overhead_pct"`
}

// TableRequest asks for one registered result table by id.
type TableRequest struct {
	ID string `json:"id"`
	// Requests sets the client workload of the network experiments; 0
	// means the paper's default.
	Requests int `json:"requests,omitempty"`
}

// TableResponse carries the rendered table.
type TableResponse struct {
	ID   string `json:"id"`
	Text string `json:"text"`
}

// GoAway is the body of a TGoAway frame.
type GoAway struct {
	LastID uint64 `json:"last_id"`
}

// ErrorResponse is the body of every TError frame.
type ErrorResponse struct {
	Code    string `json:"code"`
	Message string `json:"message,omitempty"`
	// RetryAfterMillis hints when a shed (over-capacity or quota)
	// request is worth retrying.
	RetryAfterMillis int64 `json:"retry_after_millis,omitempty"`
}

// writeFrame encodes one frame — length prefix, header, JSON body —
// into a single buffer and writes it with one Write call, so concurrent
// writers never interleave partial frames (the caller still serializes
// writes per connection).
func writeFrame(w io.Writer, h header, body any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return fmt.Errorf("srv: encode frame body: %w", err)
	}
	buf := make([]byte, 4+headerLen+len(raw))
	binary.BigEndian.PutUint32(buf[0:], uint32(headerLen+len(raw)))
	buf[4] = h.Version
	buf[5] = h.Type
	binary.BigEndian.PutUint64(buf[6:], h.ID)
	binary.BigEndian.PutUint32(buf[14:], h.DeadlineMillis)
	copy(buf[4+headerLen:], raw)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame, bounding the payload at max bytes.
func readFrame(r io.Reader, max int) (header, []byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return header{}, nil, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if int(n) < headerLen {
		return header{}, nil, fmt.Errorf("srv: frame shorter than its header (%d bytes)", n)
	}
	if int(n) > max {
		return header{}, nil, fmt.Errorf("srv: frame of %d bytes exceeds the %d-byte limit", n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return header{}, nil, err
	}
	h := header{
		Version:        payload[0],
		Type:           payload[1],
		ID:             binary.BigEndian.Uint64(payload[2:]),
		DeadlineMillis: binary.BigEndian.Uint32(payload[10:]),
	}
	return h, payload[headerLen:], nil
}
