package core

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/cast"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

const checkSrc = `int setup(int n) {
    cudaMalloc(&p, n);
    return 0;
}

int teardown(void) {
    cudaFree(p);
    return 0;
}
`

func TestCheckRuleEmitsFindings(t *testing.T) {
	res, out := run(t, `// gocci:check id=cuda-malloc-unchecked severity=error msg="return value of cudaMalloc(E, n) is ignored"
@unchecked@
expression E, n;
@@
* cudaMalloc(E, n);
`, checkSrc, Options{})
	if out != checkSrc {
		t.Fatalf("check rule rewrote the source:\n%s", out)
	}
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v, want 1", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "cuda-malloc-unchecked" || f.Severity != "error" || f.Rule != "unchecked" {
		t.Fatalf("finding metadata wrong: %+v", f)
	}
	if f.File != "t.c" || f.Line != 2 || f.Col != 5 {
		t.Fatalf("finding anchored at %s:%d:%d, want t.c:2:5", f.File, f.Line, f.Col)
	}
	if f.Func != "setup" || f.FuncHash == "" {
		t.Fatalf("finding function identity wrong: %+v", f)
	}
	if want := "return value of cudaMalloc(&p, n) is ignored"; f.Message != want {
		t.Fatalf("message = %q, want %q", f.Message, want)
	}
	if f.Bindings["E"] != "&p" {
		t.Fatalf("bindings = %v", f.Bindings)
	}
	if res.MatchCount["unchecked"] != 1 {
		t.Fatalf("MatchCount = %v", res.MatchCount)
	}
}

func TestCheckPositionMetavarAnchor(t *testing.T) {
	res, _ := run(t, `// gocci:check id=free-site severity=info msg="free here"
@f@
identifier fn = {cudaFree};
expression E;
position p;
@@
fn@p(E)
`, checkSrc, Options{})
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	f := res.Findings[0]
	if f.Line != 7 || f.Func != "teardown" {
		t.Fatalf("position-metavar anchor at line %d func %q, want 7/teardown", f.Line, f.Func)
	}
	if _, ok := f.Bindings["p"]; ok {
		t.Fatalf("position binding leaked into Bindings: %v", f.Bindings)
	}
}

func TestStarRuleDefaultsAndDedupe(t *testing.T) {
	// No gocci:check header: id defaults to the rule name, severity to
	// warning, and the message is synthesized.
	res, _ := run(t, "@lone@\nexpression E;\n@@\n* cudaFree(E);\n", checkSrc, Options{})
	if len(res.Findings) != 1 {
		t.Fatalf("findings = %+v", res.Findings)
	}
	f := res.Findings[0]
	if f.Check != "lone" || f.Severity != analysis.SeverityWarning {
		t.Fatalf("defaults wrong: %+v", f)
	}
	if !strings.Contains(f.Message, "lone") {
		t.Fatalf("synthesized message %q", f.Message)
	}
}

// The function-granular segment path must produce the same findings as the
// file-level path, with identical baseline keys.
func TestRunSegmentFindingsMatchFileLevel(t *testing.T) {
	patch, err := smpl.ParsePatch("seg.cocci",
		"// gocci:check id=seg-check severity=warning msg=\"call of cudaMalloc\"\n@s@\nexpression E, n;\n@@\n* cudaMalloc(E, n);\n")
	if err != nil {
		t.Fatal(err)
	}
	c := Compile(patch)
	if !FunctionLocal(c, Options{}) {
		t.Fatal("single-rule check patch should be function-local")
	}
	eng := NewCompiled(c, Options{})
	fileRes, err := eng.Run([]SourceFile{{Name: "s.c", Src: checkSrc}})
	if err != nil {
		t.Fatal(err)
	}
	if len(fileRes.Findings) != 1 {
		t.Fatalf("file-level findings = %+v", fileRes.Findings)
	}

	cf, err := cparse.Parse("s.c", checkSrc, cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	segs := cast.SegmentFile(cf)
	if segs == nil {
		t.Fatal("SegmentFile returned nil")
	}
	var segFindings []analysis.Finding
	for fn := -1; fn < len(segs.Funcs); fn++ {
		sr, err := eng.RunSegment(SegmentJob{Name: "s.c", Src: checkSrc, File: cf, Segs: segs, Fn: fn})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Escaped {
			t.Fatalf("segment %d escaped", fn)
		}
		// A check rule edits nothing: each function segment comes back
		// as its raw text, unchanged.
		if fn >= 0 && (sr.Changed || sr.Text != segs.Funcs[fn].Raw()) {
			t.Errorf("segment %d: changed=%v, text differs from raw: %v", fn, sr.Changed, sr.Text != segs.Funcs[fn].Raw())
		}
		segFindings = append(segFindings, sr.Findings...)
	}
	if len(segFindings) != 1 {
		t.Fatalf("segment findings = %+v", segFindings)
	}
	a, b := fileRes.Findings[0], segFindings[0]
	if a.BaselineKey() != b.BaselineKey() {
		t.Fatalf("baseline keys differ:\nfile:    %s\nsegment: %s", a.BaselineKey(), b.BaselineKey())
	}
	if a.Line != b.Line || a.Col != b.Col || a.Func != b.Func {
		t.Fatalf("positions differ: file %+v segment %+v", a, b)
	}
}

// A position metavariable keeps a check rule function-local, but still
// blocks the segment path for transform rules.
func TestFunctionLocalPositionGate(t *testing.T) {
	check, err := smpl.ParsePatch("c.cocci",
		"// gocci:check id=x\n@r@\nidentifier fn = {cudaFree};\nexpression E;\nposition p;\n@@\nfn@p(E)\n")
	if err != nil {
		t.Fatal(err)
	}
	if !FunctionLocal(Compile(check), Options{}) {
		t.Fatal("check rule with position metavar should stay function-local")
	}
	xform, err := smpl.ParsePatch("x.cocci",
		"@r@\nidentifier fn = {cudaFree};\nexpression E;\nposition p;\n@@\n- fn@p(E);\n+ hipFree(E);\n")
	if err != nil {
		t.Fatal(err)
	}
	if FunctionLocal(Compile(xform), Options{}) {
		t.Fatal("transform rule with position metavar must not be function-local")
	}
}
