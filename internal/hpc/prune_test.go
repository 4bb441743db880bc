package hpc

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hipify"
	"repro/internal/obs"
	"repro/internal/smpl"
)

// hipify-funcs spells one rule per API name. On a file that calls only
// cudaMalloc and cudaFree, the engine must match exactly those two rules and
// prune every other one — and, with nothing left that can fire after the
// cudaMalloc rule, skip the reparse its edit would otherwise force.
func TestHipifyFuncsPrunesToCalledAPIs(t *testing.T) {
	p, err := smpl.ParsePatch("hipify-funcs.cocci", hipifyFuncsPatch())
	if err != nil {
		t.Fatal(err)
	}
	apis := sortedKeys(hipify.Functions) // rule i renames apis[i]
	if len(apis) != len(p.Rules) {
		t.Fatalf("%d rules for %d APIs", len(p.Rules), len(apis))
	}
	const src = "void f(double **p, int n)\n{\n\tcudaMalloc(p, n);\n\tcudaFree(*p);\n}\n"
	run := func(noPrefilter bool) (*core.Result, *obs.Profile) {
		tr := obs.New()
		eng := core.New(p, core.Options{CPlusPlus: true, CUDA: true, NoPrefilter: noPrefilter})
		eng.SetTrace(tr.Track("t"))
		res, err := eng.Run([]core.SourceFile{{Name: "m.cu", Src: src}})
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Profile()
	}
	res, prof := run(false)
	matched := map[string]bool{}
	for _, rs := range prof.Rules {
		if rs.Spans != 1 {
			t.Fatalf("rule %s: %d match spans, want 1", rs.Rule, rs.Spans)
		}
		if rs.Pruned == 0 {
			matched[rs.Rule] = true
		}
	}
	if len(prof.Rules) != len(p.Rules) {
		t.Fatalf("%d rules traced, want %d", len(prof.Rules), len(p.Rules))
	}
	for i, r := range p.Rules {
		called := apis[i] == "cudaMalloc" || apis[i] == "cudaFree"
		if matched[r.Name] != called {
			t.Errorf("rule %s (%s): matched=%v, want %v", r.Name, apis[i], matched[r.Name], called)
		}
		want := 0
		if called {
			want = 1
		}
		if res.MatchCount[r.Name] != want {
			t.Errorf("rule %s (%s): %d matches, want %d", r.Name, apis[i], res.MatchCount[r.Name], want)
		}
	}
	if len(matched) != 2 {
		t.Errorf("%d rules matched, want 2", len(matched))
	}

	// The same output with pruning off, at the price of a reparse after the
	// last edit: the initial parse, then one per editing rule.
	off, offProf := run(true)
	if off.Outputs["m.cu"] != res.Outputs["m.cu"] {
		t.Fatalf("outputs differ with pruning off:\n%s\nvs\n%s", off.Outputs["m.cu"], res.Outputs["m.cu"])
	}
	parses := func(p *obs.Profile) int {
		for _, ss := range p.Stages {
			if ss.Stage == obs.StageParse {
				return ss.Count
			}
		}
		return 0
	}
	if on, off := parses(prof), parses(offProf); on != 2 || off != 3 {
		t.Errorf("parses: pruned %d, unpruned %d; want 2 and 3", on, off)
	}
}
