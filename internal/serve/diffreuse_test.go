package serve

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/batch"
)

// TestSessionDiffReuse pins the warm path's zero-work contract: a sweep over
// unchanged files returns the diffs the session already holds — neither
// reading, hashing, nor diffing anything — and those diffs stay
// byte-identical to freshly computed ones across edits and invalidation.
func TestSessionDiffReuse(t *testing.T) {
	const n = 9
	root := writeCorpus(t, n)
	s := newTestSession(t, root, 0)

	sweep := func(label string) (RunStats, map[string]string) {
		t.Helper()
		diffs := map[string]string{}
		st, err := s.Run(func(fr batch.CampaignFileResult) error {
			if fr.Err != nil {
				t.Errorf("%s: %s: %v", label, fr.Name, fr.Err)
			}
			diffs[fr.Name] = fr.Diff
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return st, diffs
	}
	sameDiffs := func(label string, got, want map[string]string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d files, want %d", label, len(got), len(want))
		}
		for name, d := range want {
			if got[name] != d {
				t.Errorf("%s: %s: diff differs\ngot:\n%s\nwant:\n%s", label, name, got[name], d)
			}
		}
	}

	cold, coldDiffs := sweep("cold")
	if cold.Changed != 3 || cold.Read != n {
		t.Fatalf("cold sweep: changed=%d read=%d, want 3/%d", cold.Changed, cold.Read, n)
	}

	warm, warmDiffs := sweep("warm")
	sameDiffs("warm", warmDiffs, coldDiffs)
	if warm.Parsed != 0 || warm.Read != 0 {
		t.Errorf("warm sweep: parsed=%d read=%d, want 0/0", warm.Parsed, warm.Read)
	}
	for _, stage := range []string{"read", "hash", "render"} {
		if sec, ok := warm.StageSeconds[stage]; ok {
			t.Errorf("warm sweep spent %gs in %q, want no such stage", sec, stage)
		}
	}

	// Edit one unpatched file so the patch now changes it: it alone is read,
	// and its fresh diff matches the CLI's.
	edited := filepath.Join(root, "src01.c")
	src, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	src = append(src, []byte("\nvoid extra(int n)\n{\n\tlegacy_halo_exchange(n, 99);\n}\n")...)
	if err := os.WriteFile(edited, src, 0o644); err != nil {
		t.Fatal(err)
	}
	after, afterDiffs := sweep("after edit")
	if after.Read != 1 || after.Parsed != 1 {
		t.Errorf("after edit: read=%d parsed=%d, want 1/1", after.Read, after.Parsed)
	}
	if afterDiffs[edited] == "" {
		t.Fatalf("after edit: %s has no diff", edited)
	}
	if cli := cliDiff(t, edited); afterDiffs[edited] != cli {
		t.Errorf("edited file's diff differs from the CLI's\nsession:\n%s\ncli:\n%s", afterDiffs[edited], cli)
	}
	want := map[string]string{}
	for name, d := range coldDiffs {
		want[name] = d
	}
	want[edited] = afterDiffs[edited]
	sameDiffs("after edit", afterDiffs, want)

	// Invalidation drops the held diffs with the rest of the resident
	// state: the next sweep reads and diffs again, to the same bytes.
	s.Invalidate()
	inv, invDiffs := sweep("after invalidate")
	if inv.Read != n {
		t.Errorf("after invalidate: read=%d, want %d", inv.Read, n)
	}
	if _, ok := inv.StageSeconds["render"]; !ok {
		t.Errorf("after invalidate: no render stage, want the diffs recomputed")
	}
	sameDiffs("after invalidate", invDiffs, want)
}

// cliDiff runs a freshly built gocci over one file with the test patch and
// returns its diff.
func cliDiff(t *testing.T, path string) string {
	t.Helper()
	if testing.Short() {
		t.Skip("short mode: skips building the gocci binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "gocci")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/gocci").CombinedOutput(); err != nil {
		t.Fatalf("building gocci: %v\n%s", err, out)
	}
	patch := filepath.Join(dir, "rename.cocci")
	if err := os.WriteFile(patch, []byte(renamePatch), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "--sp-file", patch, path).Output()
	if err != nil {
		t.Fatalf("gocci: %v", err)
	}
	return string(out)
}
