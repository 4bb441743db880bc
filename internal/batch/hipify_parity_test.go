package batch_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/batch"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/hpc"
	"repro/internal/patchlib"
	"repro/internal/smpl"
)

// TestPrefilterParityHipify extends TestPrefilterParity to the paper's
// whole-codebase port — the hipify campaign's one-API-per-rule members
// followed by the L1 LIKWID patch, where the engine prunes most rules per
// file — over a generated mixed tree, with the prefilter (file skip and
// rule pruning) on and off: every file's output, diff, per-patch match
// counts and error presence must agree. It lives in the external test
// package because internal/hpc imports batch.
func TestPrefilterParityHipify(t *testing.T) {
	c, _ := hpc.ByName("hipify")
	l1, _ := patchlib.ByID("L1")
	var texts []string
	for _, n := range c.PatchNames() {
		texts = append(texts, c.PatchText(n))
	}
	var patches []*smpl.Patch
	for _, text := range append(texts, l1.Patch) {
		p, err := smpl.ParsePatch("t.cocci", text)
		if err != nil {
			t.Fatal(err)
		}
		patches = append(patches, p)
	}
	eopts := core.Options{CPlusPlus: c.CPlusPlus, Std: c.Std, CUDA: c.CUDA}
	var files []core.SourceFile
	for i, shape := range []string{"cuda", "kernels", "openacc", "openmp", "mixed", "curand"} {
		for seed := int64(1); seed <= 3; seed++ {
			files = append(files, core.SourceFile{
				Name: fmt.Sprintf("%s_%d.c", shape, seed),
				Src:  codegen.Shapes[shape](codegen.Config{Funcs: 3 + i%3, StmtsPerFunc: 2 + int(seed), Seed: seed}),
			})
		}
	}
	collect := func(noPrefilter bool) []batch.CampaignFileResult {
		o := eopts
		o.NoPrefilter = noPrefilter
		c := batch.NewCampaign(patches, batch.Options{Workers: 2, Engine: o})
		var out []batch.CampaignFileResult
		c.Run(files, func(fr batch.CampaignFileResult) bool { out = append(out, fr); return true })
		return out
	}
	off, on := collect(true), collect(false)
	if len(on) != len(files) || len(off) != len(files) {
		t.Fatalf("result counts: on=%d off=%d, want %d", len(on), len(off), len(files))
	}
	changed, skipped := 0, 0
	for i := range on {
		name := on[i].Name
		if (on[i].Err == nil) != (off[i].Err == nil) {
			t.Fatalf("%s: error presence differs: on=%v off=%v", name, on[i].Err, off[i].Err)
		}
		if on[i].Output != off[i].Output || on[i].Diff != off[i].Diff {
			t.Errorf("%s: output differs with the prefilter on", name)
		}
		if on[i].Diff != "" {
			changed++
		}
		for k := range on[i].Patches {
			po, pf := on[i].Patches[k], off[i].Patches[k]
			if !reflect.DeepEqual(po.MatchCount, pf.MatchCount) {
				t.Errorf("%s: %s match counts differ: on=%v off=%v", name, po.Patch, po.MatchCount, pf.MatchCount)
			}
			if po.Skipped {
				skipped++
			}
			if pf.Skipped {
				t.Errorf("%s: %s: NoPrefilter run must never skip", name, pf.Patch)
			}
		}
	}
	if changed == 0 || skipped == 0 {
		t.Fatalf("changed %d files, skipped %d patch runs: the tree does not exercise the port", changed, skipped)
	}
}
