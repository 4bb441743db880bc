package core

import (
	"errors"
	"maps"
	"strings"
	"testing"

	"repro/internal/cparse"
	"repro/internal/smpl"
)

func mustPatch(t *testing.T, text string) *smpl.Patch {
	t.Helper()
	p, err := smpl.ParsePatch("t.cocci", text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestMultiFileRun(t *testing.T) {
	p := mustPatch(t, "@r@\nexpression list el;\n@@\n- legacy(el)\n+ modern(el)\n")
	files := []SourceFile{
		{Name: "a.c", Src: "void f(void){ legacy(1); }\n"},
		{Name: "b.c", Src: "void g(void){ legacy(2); legacy(3); }\n"},
		{Name: "c.c", Src: "void h(void){ untouched(); }\n"},
	}
	res, err := New(p, Options{}).Run(files)
	if err != nil {
		t.Fatal(err)
	}
	wantDiffs := map[string]string{
		"a.c": "--- a/a.c\n+++ b/a.c\n@@ -1,1 +1,1 @@\n-void f(void){ legacy(1); }\n+void f(void){ modern(1); }\n",
		"b.c": "--- a/b.c\n+++ b/b.c\n@@ -1,1 +1,1 @@\n-void g(void){ legacy(2); legacy(3); }\n+void g(void){ modern(2); modern(3); }\n",
		"c.c": "",
	}
	if !maps.Equal(res.Diffs, wantDiffs) {
		t.Errorf("diffs = %q, want %q", res.Diffs, wantDiffs)
	}

	// RunParsed returns the same outputs and leaves diffing to its caller.
	var parsed []ParsedFile
	for _, f := range files {
		cf, err := cparse.Parse(f.Name, f.Src, cparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		parsed = append(parsed, ParsedFile{Name: f.Name, Src: f.Src, File: cf})
	}
	pres, err := New(p, Options{}).RunParsed(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if pres.Diffs != nil {
		t.Errorf("RunParsed returned diffs %q", pres.Diffs)
	}
	if !maps.Equal(pres.Outputs, res.Outputs) {
		t.Errorf("RunParsed outputs %q, Run outputs %q", pres.Outputs, res.Outputs)
	}
	if res.MatchCount["r"] != 3 {
		t.Errorf("matches=%d want 3", res.MatchCount["r"])
	}
	if got := res.Changed(); len(got) != 2 || got[0] != "a.c" || got[1] != "b.c" {
		t.Errorf("changed=%v", got)
	}
	if res.Diffs["c.c"] != "" {
		t.Error("untouched file has a diff")
	}
}

// Cross-file rule chaining: a binding found in one file drives a
// transformation in another (the multi-file nature of real refactorings).
func TestCrossFileInheritance(t *testing.T) {
	p := mustPatch(t, `@def@
identifier f =~ "deprecated";
type T;
parameter list PL;
@@
T f(PL) { ... }

@use@
identifier def.f;
expression list el;
@@
- f(el)
+ shimmed(el)
`)
	res, err := New(p, Options{}).Run([]SourceFile{
		{Name: "lib.c", Src: "int deprecated_sum(int a, int b) { return a + b; }\n"},
		{Name: "app.c", Src: "void m(void){ int s = deprecated_sum(1, 2); }\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["app.c"], "shimmed(1, 2)") {
		t.Errorf("cross-file rename failed:\n%s", res.Outputs["app.c"])
	}
}

func TestScriptErrorPropagates(t *testing.T) {
	p := mustPatch(t, `@m@
identifier fn;
@@
fn(...)

@script:go boom@
fn << m.fn;
out;
@@
(go)
`)
	eng := New(p, Options{})
	eng.RegisterScript("boom", func(in map[string]string) (map[string]string, error) {
		return nil, errors.New("deliberate failure")
	})
	_, err := eng.Run([]SourceFile{{Name: "a.c", Src: "void f(void){ g(); }\n"}})
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Errorf("script error lost: %v", err)
	}
}

func TestMinipyErrorPropagates(t *testing.T) {
	p := mustPatch(t, "@initialize:python@ @@\nX = undefined_name\n\n@r@\n@@\n- f();\n")
	_, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: "void g(void){ f(); }\n"}})
	if err == nil || !strings.Contains(err.Error(), "unbound name") {
		t.Errorf("minipy error lost: %v", err)
	}
}

func TestParseErrorNamesFile(t *testing.T) {
	p := mustPatch(t, "@r@\n@@\n- f();\n")
	_, err := New(p, Options{}).Run([]SourceFile{{Name: "broken.c", Src: "void f( {"}})
	if err == nil || !strings.Contains(err.Error(), "broken.c") {
		t.Errorf("parse error missing file name: %v", err)
	}
}

func TestMaxEnvsCap(t *testing.T) {
	// a pure-match rule over many calls explodes the env set; the cap keeps
	// it bounded without failing the run.
	var sb strings.Builder
	sb.WriteString("void f(void){\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("\tcall_site();\n")
	}
	sb.WriteString("}\n")
	p := mustPatch(t, "@m@\nidentifier fn;\nposition pos;\n@@\nfn@pos(...)\n")
	res, err := New(p, Options{MaxEnvs: 10}).Run([]SourceFile{{Name: "a.c", Src: sb.String()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnvCount > 11 {
		t.Errorf("env cap not applied: %d", res.EnvCount)
	}
}

func TestFreshIdentifierCollision(t *testing.T) {
	// two kernels with the same name in different files must get distinct
	// fresh clones
	p := mustPatch(t, `@@
type T;
identifier f =~ "kernel";
parameter list PL;
statement list SL;
fresh identifier fc = "fast_" ## f;
@@
+ T fc (PL) { SL }
T f (PL) { SL }
`)
	res, err := New(p, Options{}).Run([]SourceFile{
		{Name: "a.c", Src: "int kernel_x(int v) { return v; }\n"},
		{Name: "b.c", Src: "int kernel_x(int w) { return w; }\n"},
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.Outputs["a.c"], res.Outputs["b.c"]
	if !strings.Contains(a, "fast_kernel_x") {
		t.Errorf("a.c missing clone:\n%s", a)
	}
	if !strings.Contains(b, "fast_kernel_x_1") {
		t.Errorf("b.c should get a de-collided name:\n%s", b)
	}
}

func TestFinalizeRuleRuns(t *testing.T) {
	p := mustPatch(t, `@r@
@@
- f();

@finalize:go@
@@
(go)
`)
	ran := false
	eng := New(p, Options{})
	// finalize rules have generated names; find it
	var finalName string
	for _, r := range p.Rules {
		if r.Kind == smpl.FinalizeRule {
			finalName = r.Name
		}
	}
	eng.RegisterScript(finalName, func(in map[string]string) (map[string]string, error) {
		ran = true
		return nil, nil
	})
	if _, err := eng.Run([]SourceFile{{Name: "a.c", Src: "void g(void){ f(); }\n"}}); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("finalize rule did not run")
	}
}

func TestOverlappingMatchesApplyOnce(t *testing.T) {
	// two rules delete overlapping regions; the second must skip rather
	// than corrupt
	p := mustPatch(t, `@a@
@@
- f(1);

@b@
expression e;
@@
- f(e);
`)
	res, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: "void g(void){ f(1); f(2); }\n"}})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs["a.c"]
	if strings.Contains(out, "f(1)") || strings.Contains(out, "f(2)") {
		t.Errorf("deletions incomplete:\n%s", out)
	}
}

func TestEmptyFileSet(t *testing.T) {
	p := mustPatch(t, "@r@\n@@\n- f();\n")
	res, err := New(p, Options{}).Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 0 || len(res.Changed()) != 0 {
		t.Errorf("unexpected outputs: %+v", res)
	}
}

func TestInsertOnlyRuleIsStable(t *testing.T) {
	// insertion-only patches applied to their own output insert again —
	// users chain rules; verify the engine at least produces valid source
	// both times and the count doubles predictably.
	p := mustPatch(t, "@r@\n@@\n#pragma omp ...\n{\n+ PROLOGUE();\n...\n}\n")
	src := "void f(void){\n#pragma omp parallel\n{\nwork();\n}\n}\n"
	res1, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: src}})
	if err != nil {
		t.Fatal(err)
	}
	out1 := res1.Outputs["a.c"]
	if strings.Count(out1, "PROLOGUE();") != 1 {
		t.Fatalf("first application:\n%s", out1)
	}
	res2, err := New(p, Options{}).Run([]SourceFile{{Name: "a.c", Src: out1}})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(res2.Outputs["a.c"], "PROLOGUE();") != 2 {
		t.Errorf("second application:\n%s", res2.Outputs["a.c"])
	}
}
