package index_test

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/cparse"
	"repro/internal/hpc"
	"repro/internal/index"
	"repro/internal/match"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// pruneSubject is one shipped patch with the dialect it runs under.
type pruneSubject struct {
	name  string
	text  string
	popts cparse.Options
	input string // the patch's own workload, when it has one
}

func pruneSubjects() []pruneSubject {
	var out []pruneSubject
	for _, ex := range patchlib.Experiments() {
		out = append(out, pruneSubject{
			name: ex.ID, text: ex.Patch, input: ex.Input(),
			popts: cparse.Options{CPlusPlus: ex.Opts.CPlusPlus, Std: ex.Opts.Std, CUDA: ex.Opts.CUDA},
		})
	}
	for _, c := range hpc.Campaigns() {
		for _, n := range c.PatchNames() {
			out = append(out, pruneSubject{
				name: c.Name + "/" + n, text: c.PatchText(n),
				popts: cparse.Options{CPlusPlus: c.CPlusPlus, Std: c.Std, CUDA: c.CUDA},
			})
		}
	}
	return out
}

// TestRulePruneSound pins the guarantee the engine's rule pruning rests on:
// whenever the per-rule predicate says a rule cannot match a file's words,
// the matcher finds nothing in that file — under both dots engines and with
// no inherited bindings, which admits every match any environment could.
// It sweeps every shipped patchlib experiment and HPC campaign member over
// every codegen shape.
func TestRulePruneSound(t *testing.T) {
	var sources []string
	for _, shape := range []string{"openmp", "unrolled", "cuda", "curand", "openacc", "search",
		"multiversion", "librsb", "aos", "kernels", "nested", "mixed"} {
		for seed := int64(1); seed <= 2; seed++ {
			sources = append(sources, codegen.Shapes[shape](codegen.Config{Funcs: 4, StmtsPerFunc: 3, Seed: seed}))
		}
	}
	pruned, kept := 0, 0
	for _, sub := range pruneSubjects() {
		p, err := smpl.ParsePatch(sub.name, sub.text)
		if err != nil {
			t.Fatalf("%s: %v", sub.name, err)
		}
		ix := index.Build(p)
		srcs := sources
		if sub.input != "" {
			srcs = append([]string{sub.input}, sources...)
		}
		for fi, src := range srcs {
			f, err := cparse.Parse("f.c", src, sub.popts)
			if err != nil {
				continue // a shape outside the patch's dialect
			}
			words := index.ScanWords(src)
			has := func(w string) bool { return words[w] }
			graphs := map[*cast.FuncDef]*cfg.Graph{}
			cfgs := func(fd *cast.FuncDef) *cfg.Graph {
				if g, ok := graphs[fd]; ok {
					return g
				}
				g := cfg.Build(fd)
				graphs[fd] = g
				return g
			}
			for i, r := range p.Rules {
				if r.Kind != smpl.MatchRule || r.Pattern == nil {
					continue
				}
				if ix.RuleMayMatch(i, has) {
					kept++
					continue
				}
				pruned++
				metas := smpl.NewMetaTable(r.Metas)
				for _, engine := range []string{"cfg", "sequence"} {
					m := &match.Matcher{Pat: r.Pattern, Metas: metas, Code: f}
					if engine == "cfg" {
						m.CFGs = cfgs
					}
					if got := m.FindAll(); len(got) != 0 {
						t.Errorf("%s rule %s (%s engine): pruned on source %d but matched %d times",
							sub.name, r.Name, engine, fi, len(got))
					}
				}
			}
		}
	}
	// The sweep must exercise both answers, or it proves nothing.
	if pruned < 1000 || kept == 0 {
		t.Fatalf("pruned %d, kept %d rule/file pairs: sweep too thin", pruned, kept)
	}
	t.Logf("pruned %d, kept %d rule/file pairs", pruned, kept)
}
