package main

import (
	"fmt"
	"os"
	"strings"

	"cash/internal/core"
)

// paperPrograms is the replay corpus of paper-suite.
func paperPrograms() []program {
	seen := map[string]bool{}
	var out []program
	for _, op := range suiteReplayOps(1) {
		if !seen[op.Key] {
			seen[op.Key] = true
			out = append(out, program{key: op.Key, src: op.src})
		}
	}
	return out
}

// writeExpected computes the oracle: every program's output from an
// unchecked gcc build with no passes, and every probe's verdict under
// each strategy. The benchmark then holds every other strategy and
// pass pipeline to these lines.
func writeExpected(path string) error {
	var b strings.Builder
	b.WriteString("# perfbench oracle: expected output per program (any strategy, any pass\n")
	b.WriteString("# pipeline) and expected verdict per overflow probe and strategy.\n")
	b.WriteString("# Regenerate with: go run . -write-expected expected.txt (from perfbench/).\n")
	var progs []program
	progs = append(progs, generatorPrograms()...)
	progs = append(progs, corpusPrograms()...)
	progs = append(progs, paperPrograms()...)
	for _, p := range progs {
		res, err := runLocal(p.src, "gcc", nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		if res.Violation != nil {
			return fmt.Errorf("%s: unexpected violation %v", p.key, res.Violation)
		}
		fmt.Fprintf(&b, "out %s %s\n", p.key, formatOutput(res.Output))
	}
	for _, p := range probes {
		for _, m := range strategies {
			res, err := runLocal(p.src, m, nil, probeStepBase)
			fmt.Fprintf(&b, "probe %s %s %s\n", p.key, m, localVerdict(res != nil && res.Violation != nil, err))
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// runLocal builds and runs a program in-process.
func runLocal(src, mode string, passes []string, stepLimit uint64) (*core.RunResult, error) {
	art, err := core.Build(src, core.Mode(mode), core.Options{Passes: passes, StepLimit: stepLimit})
	if err != nil {
		return nil, err
	}
	return art.Run()
}
