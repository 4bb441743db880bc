package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// splitDiffs cuts a multi-file unified diff stream into per-file diffs
// keyed by the "+++ b/NAME" label, with the "b/" prefix removed.
func splitDiffs(stream string) (map[string]string, error) {
	out := map[string]string{}
	lines := strings.SplitAfter(stream, "\n")
	var name string
	var cur strings.Builder
	flush := func() {
		if name != "" {
			out[name] = cur.String()
		}
		cur.Reset()
	}
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		if l == "" {
			continue
		}
		if strings.HasPrefix(l, "--- ") && i+1 < len(lines) && strings.HasPrefix(lines[i+1], "+++ ") {
			flush()
			name = strings.TrimPrefix(strings.TrimSuffix(lines[i+1][4:], "\n"), "b/")
			cur.WriteString(l)
			cur.WriteString(lines[i+1])
			i++
			continue
		}
		if name == "" {
			return nil, fmt.Errorf("diff stream: text before the first file header: %q", l)
		}
		cur.WriteString(l)
	}
	flush()
	return out, nil
}

var hunkHeader = regexp.MustCompile(`^@@ -(\d+)(?:,(\d+))? \+(\d+)(?:,(\d+))? @@`)

// applyDiff applies one file's unified diff to src, checking every context
// and removed line against src.
func applyDiff(src, d string) (string, error) {
	if d == "" {
		return src, nil
	}
	orig := strings.SplitAfter(src, "\n")
	if orig[len(orig)-1] == "" {
		orig = orig[:len(orig)-1]
	}
	lines := strings.SplitAfter(d, "\n")
	var out strings.Builder
	pos := 0 // next unconsumed original line (0-based)
	i := 0
	for i < len(lines) && !strings.HasPrefix(lines[i], "@@") {
		i++ // file headers
	}
	for i < len(lines) {
		m := hunkHeader.FindStringSubmatch(lines[i])
		if m == nil {
			if lines[i] == "" {
				break
			}
			return "", fmt.Errorf("diff: expected hunk header, got %q", lines[i])
		}
		start, _ := strconv.Atoi(m[1])
		if m[2] != "" && m[2] == "0" {
			start++ // pure insertion after line start
		}
		for pos < start-1 {
			if pos >= len(orig) {
				return "", fmt.Errorf("diff: hunk starts past end of input")
			}
			out.WriteString(orig[pos])
			pos++
		}
		i++
		for i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "@@") {
			l := lines[i]
			switch l[0] {
			case ' ', '-':
				if pos >= len(orig) || orig[pos] != l[1:] {
					return "", fmt.Errorf("diff: line %d does not match the input", pos+1)
				}
				if l[0] == ' ' {
					out.WriteString(orig[pos])
				}
				pos++
			case '+':
				out.WriteString(l[1:])
			case '\\':
				// "\ No newline at end of file": the previous line has none.
				s := strings.TrimSuffix(out.String(), "\n")
				out.Reset()
				out.WriteString(s)
			default:
				return "", fmt.Errorf("diff: unexpected line %q", l)
			}
			i++
		}
	}
	for ; pos < len(orig); pos++ {
		out.WriteString(orig[pos])
	}
	return out.String(), nil
}

var (
	cudaName   = regexp.MustCompile(`\bcu(da|rand)[A-Za-z0-9_]*`)
	hipLaunch  = regexp.MustCompile(`\bhipLaunchKernelGGL\(`)
	likwidInit = "LIKWID_MARKER_START(__func__);"
	likwidStop = "LIKWID_MARKER_STOP(__func__);"
)

// checkPorted checks one file's ported output against the generator's
// references: a CUDA-shaped file keeps no CUDA runtime name and no launch
// chevrons and launches every kernel through hipLaunchKernelGGL; every
// generated OpenMP region is instrumented exactly once.
func checkPorted(f *genFile, out string) error {
	if f.CUDA() {
		if m := cudaName.FindString(out); m != "" {
			return fmt.Errorf("%s: CUDA name %q survived the port", f.Rel, m)
		}
		if strings.Contains(out, "<<<") {
			return fmt.Errorf("%s: launch chevrons survived the port", f.Rel)
		}
		if n := len(hipLaunch.FindAllStringIndex(out, -1)); n != f.Launches {
			return fmt.Errorf("%s: %d hipLaunchKernelGGL launches, generated %d kernel launches", f.Rel, n, f.Launches)
		}
	}
	if n := strings.Count(out, likwidInit); n != f.Regions {
		return fmt.Errorf("%s: %d LIKWID_MARKER_START, generated %d OpenMP regions", f.Rel, n, f.Regions)
	}
	if n := strings.Count(out, likwidStop); n != f.Regions {
		return fmt.Errorf("%s: %d LIKWID_MARKER_STOP, generated %d OpenMP regions", f.Rel, n, f.Regions)
	}
	return nil
}

// checkPortDiffs checks a whole-tree port: every file's diff applies to its
// source, the result meets the references, and exactly the files with
// something to port changed. diffs are keyed by tree-relative path.
func checkPortDiffs(t *tree, src map[string]string, diffs map[string]string) error {
	byRel := t.byRel()
	for name := range diffs {
		if byRel[name] == nil {
			return fmt.Errorf("diff for unknown file %q", name)
		}
	}
	for _, f := range t.Files {
		d := diffs[f.Rel]
		want := f.CUDA() || f.Regions > 0
		if (d != "") != want {
			return fmt.Errorf("%s: changed=%v, want %v", f.Rel, d != "", want)
		}
		out, err := applyDiff(src[f.Rel], d)
		if err != nil {
			return fmt.Errorf("%s: %w", f.Rel, err)
		}
		if err := checkPorted(f, out); err != nil {
			return err
		}
	}
	return nil
}

// sarifLog is the subset of a SARIF log the harness checks.
type sarifLog struct {
	Runs []struct {
		Results []struct {
			RuleID    string `json:"ruleId"`
			Locations []struct {
				PhysicalLocation struct {
					ArtifactLocation struct {
						URI string `json:"uri"`
					} `json:"artifactLocation"`
				} `json:"physicalLocation"`
			} `json:"locations"`
		} `json:"results"`
	} `json:"runs"`
}

// sarifFindings parses SARIF output into the multiset "check-id file",
// with file paths relative to base.
func sarifFindings(b []byte, base string) (map[string]int, int, error) {
	var log sarifLog
	if err := json.Unmarshal(b, &log); err != nil {
		return nil, 0, fmt.Errorf("sarif: %w", err)
	}
	got := map[string]int{}
	n := 0
	for _, run := range log.Runs {
		for _, r := range run.Results {
			if len(r.Locations) == 0 {
				return nil, 0, fmt.Errorf("sarif: result %s has no location", r.RuleID)
			}
			uri := filepath.ToSlash(r.Locations[0].PhysicalLocation.ArtifactLocation.URI)
			uri = strings.TrimPrefix(strings.TrimPrefix(uri, base), "/")
			got[r.RuleID+" "+uri]++
			n++
		}
	}
	return got, n, nil
}

// sameMultiset compares two finding multisets, naming the first mismatch.
func sameMultiset(got, want map[string]int) error {
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Errorf("finding %q: got %d, planted %d", k, got[k], want[k])
		}
	}
	for _, k := range sortedKeys(got) {
		if want[k] == 0 {
			return fmt.Errorf("finding %q: got %d, planted none", k, got[k])
		}
	}
	return nil
}

// wantCheckExit is the exit code a check run must end with: 1 when an
// error-severity shape is planted (the --fail-on default), else 0.
func wantCheckExit(planted map[string]int) int {
	for k, n := range planted {
		if n > 0 && strings.HasPrefix(k, "cuda-malloc-unchecked ") {
			return 1
		}
	}
	return 0
}

// hunks strips a file diff's two header lines, so diffs whose labels
// differ (CLI path vs daemon path) compare by content.
func hunks(d string) string {
	for k := 0; k < 2; k++ {
		if i := strings.IndexByte(d, '\n'); i >= 0 {
			d = d[i+1:]
		}
	}
	return d
}
