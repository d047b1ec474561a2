package serve

import (
	"testing"

	"cash/internal/core"
)

// TestBuildKeyAliasIdentity: the deprecated Mode constants and their
// plain string spellings must address the same artifact-cache entry —
// the key hashes the strategy name, not an enum value.
func TestBuildKeyAliasIdentity(t *testing.T) {
	src := "void main() { printi(1); }"
	cases := []struct{ a, b core.Mode }{
		{core.ModeCash, core.Mode("cash")},
		{core.ModeGCC, core.Mode("gcc")},
		{core.ModeBCC, core.Mode("bcc")},
		{core.ModeMPX, core.Mode("mpx")},
	}
	for _, c := range cases {
		if got, want := buildKey(src, c.a, core.Options{}), buildKey(src, c.b, core.Options{}); got != want {
			t.Errorf("buildKey(%v) = %s, buildKey(%q) = %s: aliases must share a cache entry",
				c.a, got, string(c.b), want)
		}
	}
	// Distinct strategies must not collide.
	if buildKey(src, core.ModeCash, core.Options{}) == buildKey(src, core.ModeMPX, core.Options{}) {
		t.Error("cash and mpx share a cache key")
	}
}

// TestBuildKeyStrategySeparation: the name is length-delimited in the
// hash, so a strategy name must never alias into the option block or
// source of a different request.
func TestBuildKeyStrategySeparation(t *testing.T) {
	if buildKey("x", core.Mode("ab"), core.Options{}) == buildKey("x", core.Mode("a"), core.Options{}) {
		t.Error("different names collide")
	}
}

// TestBuildKeyPinned pins content addresses computed before tier 2
// became the only execution engine, when the key still carried an
// engine byte. Those builds left it 0, so their on-disk store entries
// must keep the same addresses and warm-start a newer process.
func TestBuildKeyPinned(t *testing.T) {
	for _, c := range []struct {
		src  string
		mode core.Mode
		opts core.Options
		want string
	}{
		{"void main() { printi(1); }", core.ModeCash, core.Options{},
			"371841b8a958672af78bb56445893073831f0ce1a0c59e97c48422856666a073"},
		{heapKernel, core.ModeBCC, core.Options{SegRegs: 4, Passes: []string{"rce", "hoist"}, StepLimit: 1000000},
			"a558fb916862447b8fa7f6e282136e2fad23ed9a839d5eb677ba6deaf5c0fbe3"},
	} {
		if got := buildKey(c.src, c.mode, c.opts); got != c.want {
			t.Errorf("buildKey(%v, %+v) = %s, want %s: existing store entries would go cold", c.mode, c.opts, got, c.want)
		}
	}
}
