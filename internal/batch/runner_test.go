package batch

import (
	"path/filepath"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/smpl"
)

// A file that fails to parse counts as parsed under one rule, whatever the
// campaign size: errors are never cached, so every run re-parses it.
func TestParsedCountsParseFailures(t *testing.T) {
	files := corpus(6)
	files[4] = core.SourceFile{Name: "broken.c", Src: "void broken(\n{\n\told_api(1;\n}\n"}
	const want = 3 // f000.c and f003.c call old_api, plus the broken file

	var broken FileResult
	st, err := New(parsePatch(t, renamePatch), Options{Workers: 2}).Collect(files, func(fr FileResult) error {
		if fr.Name == "broken.c" {
			broken = fr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if broken.Err == nil || !broken.Parsed {
		t.Errorf("broken.c: Err = %v, Parsed = %v; want a parse error with Parsed set", broken.Err, broken.Parsed)
	}
	if st.Parsed != want || st.Errors != 1 {
		t.Errorf("Runner stats = %+v, want Parsed %d and 1 error", st, want)
	}
	for _, texts := range [][]string{{renamePatch}, {renamePatch, unrelatedPatch}} {
		cs, err := NewCampaign(parseAll(t, texts), Options{Workers: 2}).Collect(files, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Parsed != st.Parsed {
			t.Errorf("%d-member campaign Parsed = %d, Runner Parsed = %d", len(texts), cs.Parsed, st.Parsed)
		}
	}
}

// A single patch names itself in the undeclared-define error; a campaign of
// several cannot name one.
func TestUndeclaredDefineNamesLonePatch(t *testing.T) {
	opts := Options{Engine: core.Options{Defines: []string{"W"}}}
	p, err := smpl.ParsePatch("r.cocci", renamePatch)
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(p, opts).Collect(corpus(3), nil)
	if want := `define "W" is not declared virtual in r.cocci`; err == nil || err.Error() != want {
		t.Errorf("one patch: err = %v, want %q", err, want)
	}
	_, err = NewCampaign([]*smpl.Patch{p, parsePatch(t, secondPatch)}, opts).Collect(corpus(3), nil)
	if want := `define "W" is not declared virtual in any patch of the campaign`; err == nil || err.Error() != want {
		t.Errorf("two patches: err = %v, want %q", err, want)
	}
}

// prefilterSpans counts a trace's prefilter spans by outcome ("" for the
// decision-free word-scan span).
func prefilterSpans(t *testing.T, tr *obs.Tracer) map[string]int {
	t.Helper()
	n := map[string]int{}
	for _, ev := range decodeTrace(t, tr).TraceEvents {
		if ev.Ph == "X" && ev.Name == string(obs.StagePrefilter) {
			outcome, _ := ev.Args["outcome"].(string)
			n[outcome]++
		}
	}
	return n
}

// A lone patch without a store tests its atoms on the file's bytes: the
// prefilter leaves one span, the skip decision, and no word-scan span. A
// campaign of two shares one word scan between its members' decisions.
func TestLonePatchPrefiltersBytes(t *testing.T) {
	files := []core.SourceFile{{Name: "idle.c", Src: "void idle(int x)\n{\n\tspin(x);\n}\n"}}

	tr := obs.New()
	st, err := New(parsePatch(t, renamePatch), Options{Workers: 1, Tracer: tr}).Collect(files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped != 1 || st.Parsed != 0 {
		t.Fatalf("stats = %+v, want the file skipped unparsed", st)
	}
	if got := prefilterSpans(t, tr); len(got) != 1 || got[string(obs.OutcomeSkip)] != 1 {
		t.Errorf("lone patch prefilter spans by outcome = %v, want exactly one skip", got)
	}

	tr = obs.New()
	c := NewCampaign(parseAll(t, []string{renamePatch, unrelatedPatch}), Options{Workers: 1, Tracer: tr})
	if _, err := c.Collect(files, nil); err != nil {
		t.Fatal(err)
	}
	if got := prefilterSpans(t, tr); got[""] != 1 || got[string(obs.OutcomeSkip)] != 2 {
		t.Errorf("two-member prefilter spans by outcome = %v, want one scan and two skips", got)
	}
}

// A single-patch run keys its results exactly as a one-member campaign
// does, so a cache directory a Runner wrote replays in a Campaign, under
// the key cache.ResultKey(patch text, option fingerprint).
func TestRunnerCacheReplaysInCampaign(t *testing.T) {
	files := corpus(6)
	patch := parsePatch(t, renamePatch)
	opts := Options{Workers: 2, CacheDir: filepath.Join(t.TempDir(), "cache")}
	var want []FileResult
	if _, err := New(patch, opts).Collect(files, func(fr FileResult) error {
		want = append(want, fr)
		return fr.Err
	}); err != nil {
		t.Fatal(err)
	}

	disk, err := cache.Open(opts.CacheDir)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.ResultKey(patch.Src, keyFingerprint(opts.Engine, false, false, nil))
	for _, f := range files {
		if _, ok := disk.Result(key, cache.HashString(f.Src)); !ok {
			t.Errorf("%s: no result under the single-patch key", f.Name)
		}
	}

	cs, err := NewCampaign([]*smpl.Patch{patch}, opts).Collect(files, func(fr CampaignFileResult) error {
		if w := want[fr.Index]; fr.Output != w.Output || fr.Diff != w.Diff {
			t.Errorf("%s: campaign replay differs from the Runner's run", fr.Name)
		}
		return fr.Err
	})
	if err != nil {
		t.Fatal(err)
	}
	if cs.PerPatch[0].Cached != len(files) {
		t.Errorf("campaign replayed %d of %d files from the Runner's cache", cs.PerPatch[0].Cached, len(files))
	}
}
