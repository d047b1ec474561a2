package srv

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	h := header{Version: ProtoVersion, Type: TRun, ID: 777, DeadlineMillis: 1500}
	body := RunRequest{Source: "void main() {}", Mode: "cash",
		Options: WireOptions{SegRegs: 4, Passes: []string{"rce", "hoist"}}}
	if err := writeFrame(&buf, h, body); err != nil {
		t.Fatal(err)
	}
	got, raw, err := readFrame(&buf, DefaultMaxFrameBytes)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header roundtrip: %+v != %+v", got, h)
	}
	var back RunRequest
	if err := decode(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Source != body.Source || back.Mode != body.Mode ||
		back.Options.SegRegs != 4 || len(back.Options.Passes) != 2 {
		t.Fatalf("body roundtrip: %+v", back)
	}
}

// TestRunRequestIgnoresTier2 pins compatibility with clients written
// while tier 2 was an opt-in wire option: unknown option fields are
// ignored, so a request carrying "tier2": true decodes to the same
// request as one without it and is answered with identical bytes.
func TestRunRequestIgnoresTier2(t *testing.T) {
	src, err := json.Marshal(srcQuick)
	if err != nil {
		t.Fatal(err)
	}
	plain := json.RawMessage(`{"source":` + string(src) + `,"mode":"cash","options":{"seg_regs":4}}`)
	legacy := json.RawMessage(`{"source":` + string(src) + `,"mode":"cash","options":{"seg_regs":4,"tier2":true}}`)
	var a, b RunRequest
	if err := decode(plain, &a); err != nil {
		t.Fatal(err)
	}
	if err := decode(legacy, &b); err != nil {
		t.Fatalf("request with tier2 rejected: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("tier2 changed the decoded request:\n%+v\nvs\n%+v", a, b)
	}

	_, l := startServer(t, Config{})
	nc, err := l.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var bodies [2][]byte
	for i, req := range []json.RawMessage{plain, legacy} {
		if err := writeFrame(nc, header{Version: ProtoVersion, Type: TRun, ID: uint64(i + 1)}, req); err != nil {
			t.Fatal(err)
		}
		h, body, err := readFrame(nc, DefaultMaxFrameBytes)
		if err != nil {
			t.Fatal(err)
		}
		if h.Type != TResult || h.ID != uint64(i+1) {
			t.Fatalf("request %d answered with type %d id %d: %s", i+1, h.Type, h.ID, body)
		}
		bodies[i] = body
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("tier2 changed the response:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	var buf bytes.Buffer
	big := RunRequest{Source: strings.Repeat("x", 4096)}
	if err := writeFrame(&buf, header{Version: ProtoVersion, Type: TRun, ID: 1}, big); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readFrame(&buf, 256); err == nil {
		t.Fatal("oversized frame must be rejected")
	}
}

func TestFrameShorterThanHeaderRejected(t *testing.T) {
	r := bytes.NewReader([]byte{0, 0, 0, 2, 1, 1})
	if _, _, err := readFrame(r, DefaultMaxFrameBytes); err == nil {
		t.Fatal("undersized frame must be rejected")
	}
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in string
		ok bool
	}{{"gcc", true}, {"bcc", true}, {"cash", true}, {"", true}, {"llvm", false}} {
		if _, err := ParseMode(tc.in); (err == nil) != tc.ok {
			t.Fatalf("ParseMode(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
		}
	}
}

func TestBucketQuota(t *testing.T) {
	b := newBucket(2, 3) // 2 tokens/s, burst 3
	now := ref()
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(now); !ok {
			t.Fatalf("burst token %d denied", i)
		}
	}
	ok, retry := b.take(now)
	if ok {
		t.Fatal("4th immediate request must be over quota")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retry hint %v outside (0, 1s] at 2 tokens/s", retry)
	}
	// Half a second refills one token at 2/s.
	if ok, _ := b.take(now.Add(600 * time.Millisecond)); !ok {
		t.Fatal("token did not refill")
	}
	if b != nil {
		// nil bucket admits everything
		var nb *bucket
		if ok, _ := nb.take(now); !ok {
			t.Fatal("nil bucket must admit")
		}
	}
}

func ref() time.Time { return time.Unix(1_000_000, 0) }
