package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"cash/internal/obs"
	"cash/internal/vm"
)

// TestArtifactCodecRoundtrip pins that a decoded artifact runs
// byte-identically to the compiled one it came from: same output, same
// cycle count, same dynamic statistics.
func TestArtifactCodecRoundtrip(t *testing.T) {
	for _, mode := range []Mode{ModeGCC, ModeCash} {
		art, err := Build(sumKernel, mode, Options{Passes: []string{"rce", "hoist"}})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		data, ok, err := EncodeArtifact(art)
		if err != nil || !ok {
			t.Fatalf("%v: encode: ok=%v err=%v", mode, ok, err)
		}
		back, err := DecodeArtifact(data)
		if err != nil {
			t.Fatalf("%v: decode: %v", mode, err)
		}
		if back.Mode != art.Mode {
			t.Fatalf("%v: mode changed to %v", mode, back.Mode)
		}
		if !reflect.DeepEqual(back.Options(), art.Options()) {
			t.Fatalf("%v: options drifted: %+v vs %+v", mode, back.Options(), art.Options())
		}
		if back.DumpIR() != "" {
			t.Fatalf("%v: decoded artifact should have no IR", mode)
		}
		want, err := art.Run()
		if err != nil {
			t.Fatalf("%v: run original: %v", mode, err)
		}
		got, err := back.Run()
		if err != nil {
			t.Fatalf("%v: run decoded: %v", mode, err)
		}
		if !reflect.DeepEqual(got.Output, want.Output) {
			t.Fatalf("%v: output %v, want %v", mode, got.Output, want.Output)
		}
		if got.Cycles != want.Cycles || got.Stats != want.Stats {
			t.Fatalf("%v: decoded run diverged: cycles %d vs %d, stats %+v vs %+v",
				mode, got.Cycles, want.Cycles, got.Stats, want.Stats)
		}
	}
}

// TestArtifactCodecDecodesTier2Field pins blob compatibility with
// stores written while tier 2 was an opt-in build option: a blob whose
// options still carry the old Tier2 field decodes (gob drops the field)
// and runs byte-identically to the artifact it was encoded from.
func TestArtifactCodecDecodesTier2Field(t *testing.T) {
	type legacyOptions struct {
		SegRegs         int
		SkipReadChecks  bool
		UseBoundInstr   bool
		WithoutCallGate bool
		ElectricFence   bool
		Passes          []string
		StepLimit       uint64
		Tier2           bool
	}
	type legacyBlob struct {
		Version int
		Mode    string
		Opts    legacyOptions
		Program *vm.Program
	}
	art, err := Build(sumKernel, ModeCash, Options{Passes: []string{"rce"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	old := legacyBlob{Version: persistVersion, Mode: string(ModeCash),
		Opts: legacyOptions{Passes: []string{"rce"}, Tier2: true}, Program: art.Program}
	if err := gob.NewEncoder(&buf).Encode(&old); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeArtifact(buf.Bytes())
	if err != nil {
		t.Fatalf("blob with a Tier2 field no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(back.Options(), art.Options()) {
		t.Fatalf("options drifted: %+v vs %+v", back.Options(), art.Options())
	}
	want, err := art.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("decoded run diverged:\n%+v\nvs\n%+v", got.Result, want.Result)
	}
}

// TestArtifactCodecRefusesTrace pins that a trace-bearing artifact is
// never persisted — the trace is a live pointer into this process.
func TestArtifactCodecRefusesTrace(t *testing.T) {
	art, err := Build(sumKernel, ModeCash, Options{EventTrace: obs.NewTrace(8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := EncodeArtifact(art); ok || err != nil {
		t.Fatalf("trace-bearing artifact must not encode: ok=%v err=%v", ok, err)
	}
}

func TestDecodeArtifactRejectsGarbage(t *testing.T) {
	if _, err := DecodeArtifact([]byte("not a gob stream")); err == nil {
		t.Fatal("garbage must not decode")
	}
}

// TestRunOutcomeCodecRoundtrip covers the three persistable outcome
// shapes: clean completion, detected violation, and a terminal fault.
func TestRunOutcomeCodecRoundtrip(t *testing.T) {
	// Clean completion.
	art, err := Build(sumKernel, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := art.Run()
	if err != nil {
		t.Fatal(err)
	}
	assertOutcomeRoundtrip(t, res, nil)

	// Detected violation.
	vart, err := Build(`
int a[4];
void main() { for (int i = 0; i < 8; i++) a[i] = i; }`, ModeCash, Options{})
	if err != nil {
		t.Fatal(err)
	}
	vres, err := vart.Run()
	if err != nil {
		t.Fatal(err)
	}
	if vres.Violation == nil {
		t.Fatal("expected a violation")
	}
	assertOutcomeRoundtrip(t, vres, nil)

	// Terminal fault (step limit exceeded) surfaces as a run error.
	lart, err := Build(sumKernel, ModeCash, Options{StepLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	lres, lerr := lart.Run()
	if lerr == nil {
		t.Fatal("expected a step-limit fault")
	}
	assertOutcomeRoundtrip(t, lres, lerr)
}

func assertOutcomeRoundtrip(t *testing.T, res *RunResult, runErr error) {
	t.Helper()
	data, ok := EncodeRunOutcome(res, runErr)
	if !ok {
		t.Fatalf("outcome (res=%v err=%v) must encode", res != nil, runErr)
	}
	gotRes, gotErr, err := DecodeRunOutcome(data)
	if err != nil {
		t.Fatal(err)
	}
	if (gotRes == nil) != (res == nil) {
		t.Fatalf("result presence changed: got %v want %v", gotRes != nil, res != nil)
	}
	if res != nil {
		if !reflect.DeepEqual(gotRes.Result, res.Result) {
			t.Fatalf("result drifted: %+v vs %+v", gotRes.Result, res.Result)
		}
		if gotRes.HeapSpan != res.HeapSpan {
			t.Fatalf("heap span %d, want %d", gotRes.HeapSpan, res.HeapSpan)
		}
		switch {
		case res.Violation == nil:
			if gotRes.Violation != nil {
				t.Fatal("violation appeared from nowhere")
			}
		case gotRes.Violation == nil:
			t.Fatal("violation lost")
		case gotRes.Violation.Error() != res.Violation.Error():
			t.Fatalf("violation text %q, want %q", gotRes.Violation.Error(), res.Violation.Error())
		}
	}
	switch {
	case runErr == nil:
		if gotErr != nil {
			t.Fatalf("error appeared from nowhere: %v", gotErr)
		}
	case gotErr == nil:
		t.Fatalf("run error lost (want %v)", runErr)
	case gotErr.Error() != runErr.Error():
		t.Fatalf("run error text %q, want %q", gotErr.Error(), runErr.Error())
	}
}

// TestRunOutcomeCodecRefusals pins the never-persist cases: canceled
// runs and non-Fault errors.
func TestRunOutcomeCodecRefusals(t *testing.T) {
	canceled := &vm.Fault{Kind: vm.FaultCanceled, IP: 3, Instr: "add"}
	if _, ok := EncodeRunOutcome(nil, canceled); ok {
		t.Fatal("canceled outcome must not encode")
	}
	if _, ok := EncodeRunOutcome(nil, errExotic{}); ok {
		t.Fatal("non-Fault error must not encode")
	}
}

type errExotic struct{}

func (errExotic) Error() string { return "exotic" }
