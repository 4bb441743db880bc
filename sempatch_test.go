package sempatch

import (
	"strings"
	"testing"
)

const renamePatch = `@r@
expression list el;
@@
- foo(el)
+ bar(el)
`

func TestApplyOneShot(t *testing.T) {
	res, err := Apply("r.cocci", renamePatch, Options{},
		File{Name: "a.c", Src: "void f(void){ foo(1, 2); }\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["a.c"], "bar(1, 2);") {
		t.Errorf("output: %s", res.Outputs["a.c"])
	}
	if len(res.Changed()) != 1 || res.Changed()[0] != "a.c" {
		t.Errorf("changed: %v", res.Changed())
	}
}

func TestApplierMultipleFiles(t *testing.T) {
	p, err := ParsePatch("r.cocci", renamePatch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewApplier(p, Options{}).Apply(
		File{Name: "a.c", Src: "void f(void){ foo(1); }\n"},
		File{Name: "b.c", Src: "void g(void){ nothing(); }\n"},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed()) != 1 {
		t.Errorf("changed=%v", res.Changed())
	}
	if res.Outputs["b.c"] != "void g(void){ nothing(); }\n" {
		t.Errorf("untouched file modified: %q", res.Outputs["b.c"])
	}
}

// TestApplierPruneAcrossFiles pins rule pruning in a multi-file Apply: a
// binding made in one file and inserted into another by a plus line must
// let a later rule fire there, exactly as with NoPrefilter.
func TestApplierPruneAcrossFiles(t *testing.T) {
	p, err := ParsePatch("x.cocci", `@take@
identifier F;
@@
- marker_src(F);

@put@
identifier take.F;
@@
- marker_dst();
+ F();

@use@
@@
- secret_api();
+ done();
`)
	if err != nil {
		t.Fatal(err)
	}
	files := []File{
		{Name: "a.c", Src: "void f(void)\n{\n\tmarker_src(secret_api);\n}\n"},
		{Name: "b.c", Src: "void g(void)\n{\n\tmarker_dst();\n}\n"},
	}
	for _, noPrefilter := range []bool{false, true} {
		res, err := NewApplier(p, Options{NoPrefilter: noPrefilter}).Apply(files...)
		if err != nil {
			t.Fatal(err)
		}
		if want := "void g(void)\n{\n\tdone();\n}\n"; res.Outputs["b.c"] != want {
			t.Errorf("NoPrefilter=%v: b.c = %q, want %q", noPrefilter, res.Outputs["b.c"], want)
		}
		if res.MatchCount["use"] != 1 {
			t.Errorf("NoPrefilter=%v: use matched %d times, want 1", noPrefilter, res.MatchCount["use"])
		}
	}
}

func TestPatchRules(t *testing.T) {
	p, err := ParsePatch("two.cocci", "@one@\n@@\n- a();\n\n@two depends on one@\n@@\n- b();\n")
	if err != nil {
		t.Fatal(err)
	}
	rules := p.Rules()
	if len(rules) != 2 || rules[0] != "one" || rules[1] != "two" {
		t.Errorf("rules=%v", rules)
	}
}

func TestRegisterScript(t *testing.T) {
	patch := `@find@
identifier fn;
expression list el;
@@
fn(el)

@script:go xf@
fn << find.fn;
nf;
@@
(go)

@apply@
identifier find.fn;
identifier xf.nf;
@@
- fn
+ nf
(...)
`
	p, err := ParsePatch("s.cocci", patch)
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewApplier(p, Options{}).
		RegisterScript("xf", func(in map[string]string) (map[string]string, error) {
			return map[string]string{"nf": "v2_" + in["fn"]}, nil
		}).
		Apply(File{Name: "a.c", Src: "void f(void){ compute(9); }\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["a.c"], "v2_compute(9);") {
		t.Errorf("output: %s", res.Outputs["a.c"])
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParsePatch("bad.cocci", "not a patch"); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParsePatchFile("/nonexistent/x.cocci"); err == nil {
		t.Error("expected file error")
	}
}

func TestDefinesPropagate(t *testing.T) {
	patch := "virtual enable;\n\n@r depends on enable@\n@@\n- drop_me();\n"
	src := "void f(void){ drop_me(); }\n"
	res, err := Apply("v.cocci", patch, Options{}, File{Name: "a.c", Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed()) != 0 {
		t.Error("rule ran without its virtual define")
	}
	res, err = Apply("v.cocci", patch, Options{Defines: []string{"enable"}}, File{Name: "a.c", Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed()) != 1 {
		t.Error("define did not enable the rule")
	}
}

func TestOptionsPropagate(t *testing.T) {
	// C++23 multi-index requires the right dialect flags end to end.
	patch := "@m@\nsymbol a;\nexpression x,y,z;\n@@\n- a[x][y][z]\n+ a[x, y, z]\n"
	res, err := Apply("m.cocci", patch, Options{CPlusPlus: true, Std: 23},
		File{Name: "a.cc", Src: "void f(double ***a){ a[1][2][3] = 0; }\n"})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Outputs["a.cc"], "a[1, 2, 3] = 0;") {
		t.Errorf("output: %s", res.Outputs["a.cc"])
	}
}
