package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/smpl"
)

// The last rule that can fire on a file never forces its output to parse:
// an intermediate output the parser rejects is the result when every later
// rule is pruned on that file. A later rule that can fire still needs the
// reparse, and then its error surfaces, as it always does with pruning off.
func TestReparseOnlyForRulesThatCanFire(t *testing.T) {
	const patch = `@inject@
@@
- old_call();
+ LIBRARY_MACRO(((;

@later@
@@
- absent_api();
`
	p, err := smpl.ParsePatch("t.cocci", patch)
	if err != nil {
		t.Fatal(err)
	}
	run := func(src string, opts Options) (*Result, error) {
		return New(p, opts).Run([]SourceFile{{Name: "t.c", Src: src}})
	}

	src := "void f(void)\n{\n\told_call();\n}\n"
	res, err := run(src, Options{})
	if err != nil {
		t.Fatalf("later rule cannot fire, yet the run failed: %v", err)
	}
	if want := "void f(void)\n{\n\tLIBRARY_MACRO(((;\n}\n"; res.Outputs["t.c"] != want {
		t.Fatalf("output = %q, want %q", res.Outputs["t.c"], want)
	}
	if res.MatchCount["inject"] != 1 || res.MatchCount["later"] != 0 {
		t.Fatalf("match counts = %v", res.MatchCount)
	}

	if _, err := run(src, Options{NoPrefilter: true}); err == nil || !strings.Contains(err.Error(), "reparsing t.c") {
		t.Fatalf("with pruning off the later rule must force the reparse: got %v", err)
	}
	fires := "void f(void)\n{\n\told_call();\n\tabsent_api();\n}\n"
	if _, err := run(fires, Options{}); err == nil || !strings.Contains(err.Error(), "reparsing t.c") {
		t.Fatalf("a later rule that can fire must surface the reparse error: got %v", err)
	}
}

// Pruning never hides the `when strict`/`when forall` refusal: the error
// depends on the rule and the options, not on whether the file could match.
func TestPrunedQuantifiedRuleStillErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		patch string
		opts  Options
	}{
		"seq-dots":           {"@r@\n@@\nlock();\n... when strict\nunlock();\n", Options{SeqDots: true}},
		"stmt-list-fallback": {"@r@\nstatement list S;\n@@\nlock();\n... when strict\nS\nunlock();\n", Options{}},
		"nested":             {"@r@\nexpression C;\n@@\nif (C) { ... when forall\nunlock(); }\n", Options{}},
	} {
		p, err := smpl.ParsePatch("q.cocci", tc.patch)
		if err != nil {
			t.Fatal(err)
		}
		// No lock/unlock anywhere: the index prunes the rule.
		_, err = New(p, tc.opts).Run([]SourceFile{{Name: "q.c", Src: "void f(int x){ work(); }"}})
		if err == nil || !strings.Contains(err.Error(), "requires the CFG dots engine") {
			t.Errorf("%s: want quantifier error, got %v", name, err)
		}
	}
}

// A rule the index prunes keeps its match span, tagged skip, and the
// profile counts it apart from runs that matched nothing.
func TestPrunedRuleTraced(t *testing.T) {
	const patch = `@hit@
@@
- present();
+ replaced();

@miss@
@@
- present(1);

@pruned@
@@
- absent_api();
`
	p, err := smpl.ParsePatch("t.cocci", patch)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	eng := New(p, Options{})
	eng.SetTrace(tr.Track("t"))
	if _, err := eng.Run([]SourceFile{{Name: "t.c", Src: "void f(void)\n{\n\tpresent();\n}\n"}}); err != nil {
		t.Fatal(err)
	}
	rules := map[string]obs.RuleStat{}
	for _, rs := range tr.Profile().Rules {
		rules[rs.Rule] = rs
	}
	for name, want := range map[string]obs.RuleStat{
		"hit":    {Rule: "hit", Spans: 1, Fired: 1, Matches: 1},
		"miss":   {Rule: "miss", Spans: 1},
		"pruned": {Rule: "pruned", Spans: 1, Pruned: 1},
	} {
		got := rules[name]
		got.Total = 0
		if got != want {
			t.Errorf("rule %s: got %+v, want %+v", name, got, want)
		}
	}
	out := tr.Profile().Format()
	if !strings.Contains(out, "rule pruned never fired (pruned by the prefilter in all 1 runs)") ||
		!strings.Contains(out, "rule miss never fired\n") {
		t.Errorf("profile does not tell pruned from unmatched rules:\n%s", out)
	}
}

// Pruning must see every word a plus line can put back through an
// inherited binding: words of another file in a multi-file run, words an
// earlier rule removed before a rescan, and words removed before the set
// was first scanned. In each case the final rule matches only text that
// such a binding inserted, and the run must equal the unpruned one.
func TestPruneSeesInheritedInsertions(t *testing.T) {
	const take = `@take@
identifier F;
@@
- marker_src(F);
`
	const put = `
@put@
identifier take.F;
@@
- marker_dst();
+ F();
`
	const use = `
@use@
@@
- secret_api();
+ done();
`
	for name, tc := range map[string]struct {
		patch string
		files []SourceFile
	}{
		"cross-file": {
			take + put + use,
			[]SourceFile{
				{Name: "a.c", Src: "void f(void)\n{\n\tmarker_src(secret_api);\n}\n"},
				{Name: "b.c", Src: "void g(void)\n{\n\tmarker_dst();\n}\n"},
			},
		},
		"after-rescan": {
			take + `
@fresh@
fresh identifier N = "tmp";
@@
- marker_fresh();
+ N();
` + put + use,
			[]SourceFile{{Name: "a.c", Src: "void f(void)\n{\n\tmarker_src(secret_api);\n\tmarker_fresh();\n\tmarker_dst();\n}\n"}},
		},
		"before-first-scan": {
			`@take@
identifier F;
@@
- F(0);
` + put + use,
			[]SourceFile{{Name: "a.c", Src: "void f(void)\n{\n\tsecret_api(0);\n\tmarker_dst();\n}\n"}},
		},
	} {
		t.Run(name, func(t *testing.T) {
			p, err := smpl.ParsePatch("t.cocci", tc.patch)
			if err != nil {
				t.Fatal(err)
			}
			off, err := New(p, Options{NoPrefilter: true}).Run(tc.files)
			if err != nil {
				t.Fatal(err)
			}
			if off.MatchCount["use"] != 1 {
				t.Fatalf("unpruned run matched use %d times, want 1: %v", off.MatchCount["use"], off.Outputs)
			}
			on, err := New(p, Options{}).Run(tc.files)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range tc.files {
				if on.Outputs[f.Name] != off.Outputs[f.Name] {
					t.Errorf("%s: pruned output\n%s\nwant\n%s", f.Name, on.Outputs[f.Name], off.Outputs[f.Name])
				}
			}
			if on.MatchCount["use"] != 1 {
				t.Errorf("pruned run matched use %d times, want 1", on.MatchCount["use"])
			}
		})
	}
}

// A transformed text that does not parse is reported by the parse error's
// position and the offending line, never by the whole text: the message
// reaches stderr, FileResult.Err and the serve JSON stream.
func TestReparseErrorNamesLineNotFile(t *testing.T) {
	const patch = `@broken@
@@
- foo();
+ foo(;

@later@
@@
- bar();
+ baz();
`
	p, err := smpl.ParsePatch("t.cocci", patch)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("void f(void)\n{\n\tfoo();\n\tbar();\n}\n")
	for i := 0; i < 50; i++ {
		sb.WriteString("int filler_unique_line_marker_" + strings.Repeat("x", i) + ";\n")
	}
	_, err = New(p, Options{}).Run([]SourceFile{{Name: "t.c", Src: sb.String()}})
	if err == nil {
		t.Fatal("the later rule must force a reparse of the broken text and fail")
	}
	msg := err.Error()
	for _, want := range []string{"reparsing t.c after transformation: t.c:3:", "line 3: \tfoo(;"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q lacks %q", msg, want)
		}
	}
	if strings.Contains(msg, "filler_unique_line_marker") || strings.Contains(msg, "bar();") {
		t.Errorf("error embeds the transformed file:\n%s", msg)
	}
}
