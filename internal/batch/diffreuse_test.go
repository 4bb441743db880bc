package batch

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/smpl"
)

// TestStateDiffReuse pins FileState.Diff/DiffOf: a held diff is returned
// only when the run ends on exactly DiffOf, and then without reading,
// hashing, or diffing anything; a stale one is replaced, never returned.
func TestStateDiffReuse(t *testing.T) {
	// Two members that both change the file: the warm replay chain must
	// look up the second member by the first member's replayed Sum.
	camp := NewCampaign([]*smpl.Patch{parsePatch(t, renamePatch), parsePatch(t, secondPatch)},
		Options{Workers: 1, Store: cache.NewMemory(nil, 256)})
	file := corpus(1)[0]
	var cold CampaignFileResult
	if _, err := camp.Collect([]core.SourceFile{file}, func(fr CampaignFileResult) error {
		cold = fr
		return fr.Err
	}); err != nil {
		t.Fatal(err)
	}
	if cold.Diff == "" || !cold.Patches[1].Changed {
		t.Fatalf("cold run must change the file through both members: %+v", cold)
	}
	hash := cache.HashString(file.Src)
	run := func(st *FileState) (CampaignFileResult, *obs.Profile) {
		t.Helper()
		tr := obs.New()
		var out CampaignFileResult
		if _, err := camp.CollectStatesT([]*FileState{st}, tr, func(fr CampaignFileResult) error {
			out = fr
			return fr.Err
		}); err != nil {
			t.Fatal(err)
		}
		return out, tr.Profile()
	}

	// Matching DiffOf: no read, no hash, no diff.
	st := &FileState{
		Name: file.Name, Hash: hash,
		Read: func() (string, error) {
			t.Error("a run ending on DiffOf read the input")
			return "", errReadForbidden
		},
		Diff: cold.Diff, DiffOf: cold.Output,
	}
	warm, prof := run(st)
	if warm.Diff != cold.Diff || warm.Output != cold.Output {
		t.Errorf("reused result differs:\ngot diff:\n%s\nwant:\n%s", warm.Diff, cold.Diff)
	}
	if !warm.Patches[0].Cached || !warm.Patches[1].Cached {
		t.Errorf("warm run did not replay both members: %+v", warm.Patches)
	}
	stages := prof.StageSeconds()
	for _, stage := range []string{obs.StageRead, obs.StageHash, obs.StageRender} {
		if _, ok := stages[stage]; ok {
			t.Errorf("warm run has a %q stage, want none", stage)
		}
	}

	// Stale DiffOf, with and without a store: the fresh diff wins and
	// replaces the held one.
	const staleDiff = "--- a/stale\n+++ b/stale\n"
	staleOf := cold.Output + "/* another output */\n"
	noStore := NewCampaign([]*smpl.Patch{parsePatch(t, renamePatch), parsePatch(t, secondPatch)},
		Options{Workers: 1})
	for _, c := range []struct {
		label string
		camp  *Campaign
		st    *FileState
	}{
		{"warm", camp, &FileState{Name: file.Name, Hash: hash,
			Read: func() (string, error) { return file.Src, nil },
			Diff: staleDiff, DiffOf: staleOf}},
		{"loaded", camp, &FileState{Name: file.Name, Src: file.Src, Loaded: true,
			Diff: staleDiff, DiffOf: staleOf}},
		{"no store", noStore, &FileState{Name: file.Name, Src: file.Src, Loaded: true,
			Diff: staleDiff, DiffOf: staleOf}},
	} {
		var fr CampaignFileResult
		if _, err := c.camp.CollectStates([]*FileState{c.st}, func(r CampaignFileResult) error {
			fr = r
			return r.Err
		}); err != nil {
			t.Fatal(err)
		}
		if fr.Diff != cold.Diff {
			t.Errorf("%s: stale diff state returned\n%s\nwant:\n%s", c.label, fr.Diff, cold.Diff)
		}
		if c.st.Diff != cold.Diff || c.st.DiffOf != cold.Output {
			t.Errorf("%s: state keeps diff %q of %q, want the fresh pair", c.label, c.st.Diff, c.st.DiffOf)
		}
	}
}
