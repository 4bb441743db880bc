package match

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/cparse"
	"repro/internal/smpl"
)

// One lazily enumerated Cands serves matchers of every pattern kind from
// several goroutines at once (the segment fan-out shares one per file), and
// each finds exactly what a matcher enumerating on its own finds.
func TestSharedCandsConcurrent(t *testing.T) {
	f, err := cparse.Parse("t.c", codegen.Mixed(codegen.Config{Funcs: 6, StmtsPerFunc: 3, Seed: 7}), cparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	patches := []string{
		"@@\nexpression x, y;\n@@\nx * y\n",                         // expressions
		"@@\nexpression e;\n@@\nq[0] = e;\n",                        // statement contexts
		"@@\nexpression e1, e2;\n@@\nq[0] = e1;\n...\nq[2] = e2;\n", // functions (CFG engine)
	}
	type job struct {
		m    *Matcher
		want []Match
	}
	var jobs []job
	cands := NewCands(f)
	for _, text := range patches {
		p, err := smpl.ParsePatch("t.cocci", text)
		if err != nil {
			t.Fatal(err)
		}
		r := p.Rules[0]
		base := Matcher{Pat: r.Pattern, Metas: smpl.NewMetaTable(r.Metas), Code: f, CFGs: cfg.Build}
		own := base
		shared := base
		shared.Cands = cands
		want := own.FindAll()
		if len(want) == 0 {
			t.Fatalf("pattern %q matches nothing: the test proves nothing", text)
		}
		jobs = append(jobs, job{&shared, want})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		for _, j := range jobs {
			wg.Add(1)
			go func(j job) {
				defer wg.Done()
				if got := j.m.FindAll(); !reflect.DeepEqual(got, j.want) {
					t.Errorf("shared Cands found %d matches, own enumeration %d", len(got), len(j.want))
				}
			}(j)
		}
	}
	wg.Wait()
}
