package minic

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// parenNested returns a program whose deepest point in the parser is
// exactly levels deep: the statement (1), the assignment (2), its right
// operand (3) and one more level per parenthesis around the literal.
func parenNested(levels int) string {
	n := levels - 3
	return "int x;\nvoid main() { x = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }\n"
}

// chainNested returns a program whose syntax tree is exactly levels
// deep: the statement (1), the assignment (2), then a left-leaning
// chain 1+1+…+1 whose first literal sits levels-2 operators down.
func chainNested(levels int) string {
	terms := levels - 2
	return "int x;\nvoid main() { x = 1" + strings.Repeat("+1", terms-1) + "; }\n"
}

// wantNestingError checks that err is the front end's typed nesting
// diagnostic.
func wantNestingError(t *testing.T, err error) {
	t.Helper()
	var fe *Error
	if !errors.As(err, &fe) || !strings.Contains(fe.Msg, fmt.Sprintf("nesting exceeds %d levels", MaxNesting)) {
		t.Fatalf("err = %v, want the typed nesting error", err)
	}
}

// TestParserNestingCap pins the parser's bound: a program nested exactly
// MaxNesting levels deep compiles, one level more is a typed error, and
// 2,000,000 levels (a 4 MB source, which used to overflow the goroutine
// stack and kill the process) is the same typed error.
func TestParserNestingCap(t *testing.T) {
	parseAndCheck(t, parenNested(MaxNesting))
	_, err := Parse(parenNested(MaxNesting + 1))
	wantNestingError(t, err)
	if testing.Short() {
		return
	}
	_, err = Parse(parenNested(2_000_000))
	wantNestingError(t, err)
}

// TestParserNestingCapCountsEveryConstruct: statements, prefix
// operators, casts and index operands all open a level, so none of them
// can recurse past the bound.
func TestParserNestingCapCountsEveryConstruct(t *testing.T) {
	deep := MaxNesting + 1
	for name, src := range map[string]string{
		"blocks":  "void main() {" + strings.Repeat("{", deep) + strings.Repeat("}", deep) + "}",
		"ifs":     "void main() { " + strings.Repeat("if (1) ", deep) + "; }",
		"unary":   "int x; void main() { x = " + strings.Repeat("- ", deep) + "1; }",
		"casts":   "int x; void main() { x = " + strings.Repeat("(int)", deep) + "1; }",
		"indexes": "int a[1]; void main() { a[0] = " + strings.Repeat("a[", deep) + "0" + strings.Repeat("]", deep) + "; }",
		"assigns": "int x; void main() { " + strings.Repeat("x = ", deep) + "1; }",
	} {
		_, err := Parse(src)
		if err == nil {
			t.Fatalf("%s: %d levels parsed without error", name, deep)
		}
		wantNestingError(t, err)
	}
}

// TestCheckerNestingCap pins the checker's bound on the syntax tree: a
// left-leaning operator chain needs no parser recursion, so the checker
// is what stops it before any recursive pass walks it.
func TestCheckerNestingCap(t *testing.T) {
	parseAndCheck(t, chainNested(MaxNesting))
	prog := parse(t, chainNested(MaxNesting+1))
	wantNestingError(t, Check(prog))
}
