package diff

// The original full-snapshot Myers implementation, kept as the reference
// the live-band one must reproduce byte for byte: greedy Myers picks one
// of possibly several equal-cost edit scripts, and which one it picks
// depends on exactly how ties are broken, so equivalence is checked on the
// rendered diff, not just on its length.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// refMyers is the previous myers: it snapshots the whole v array on every
// step, O(D·(N+M)) memory.
func refMyers(a, b []string) []op {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	offset := max
	v := make([]int, 2*max+1)
	var trace [][]int
	var dFound = -1
loop:
	for d := 0; d <= max; d++ {
		snapshot := make([]int, len(v))
		copy(snapshot, v)
		trace = append(trace, snapshot)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[offset+k-1] < v[offset+k+1]) {
				x = v[offset+k+1]
			} else {
				x = v[offset+k-1] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[offset+k] = x
			if x >= n && y >= m {
				dFound = d
				break loop
			}
		}
	}
	var ops []op
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vprev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vprev[offset+k-1] < vprev[offset+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vprev[offset+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			ops = append(ops, op{opEq, x, y})
		}
		if x == prevX {
			y--
			ops = append(ops, op{opIns, x, y})
		} else {
			x--
			ops = append(ops, op{opDel, x, y})
		}
	}
	for x > 0 && y > 0 {
		x--
		y--
		ops = append(ops, op{opEq, x, y})
	}
	for x > 0 {
		x--
		ops = append(ops, op{opDel, x, 0})
	}
	for y > 0 {
		y--
		ops = append(ops, op{opIns, 0, y})
	}
	for i, j := 0, len(ops)-1; i < j; i, j = i+1, j-1 {
		ops[i], ops[j] = ops[j], ops[i]
	}
	return ops
}

// refUnified is Unified over refMyers.
func refUnified(labelA, labelB, a, b string) string {
	if a == b {
		return ""
	}
	al, bl := splitLines(a), splitLines(b)
	return format(labelA, labelB, al, bl, refMyers(al, bl), 3)
}

// applyUnified applies a unified diff produced by Unified to a, checking
// every context and deleted line against a, and returns the result.
func applyUnified(a, d string) (string, error) {
	if d == "" {
		return a, nil
	}
	al := splitLines(a)
	lines := strings.SplitAfter(d, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "--- ") || !strings.HasPrefix(lines[1], "+++ ") {
		return "", fmt.Errorf("missing file header")
	}
	var out strings.Builder
	ai := 0
	for i := 2; i < len(lines); {
		var aPos, aCount, bPos, bCount int
		if _, err := fmt.Sscanf(lines[i], "@@ -%d,%d +%d,%d @@\n", &aPos, &aCount, &bPos, &bCount); err != nil {
			return "", fmt.Errorf("line %d: bad hunk header %q", i+1, lines[i])
		}
		start := aPos - 1
		if aCount == 0 {
			start = aPos
		}
		if start < ai || start > len(al) {
			return "", fmt.Errorf("line %d: hunk starts at %d, cursor %d", i+1, start, ai)
		}
		for ; ai < start; ai++ {
			out.WriteString(al[ai])
		}
		i++
		for i < len(lines) && !strings.HasPrefix(lines[i], "@@") {
			l := lines[i]
			i++
			text := l[1:]
			if i < len(lines) && lines[i] == "\\ No newline at end of file\n" {
				text = strings.TrimSuffix(text, "\n")
				i++
			}
			switch l[0] {
			case ' ', '-':
				if ai >= len(al) || al[ai] != text {
					return "", fmt.Errorf("line %d: %q does not match input line %d", i, l, ai+1)
				}
				ai++
				if l[0] == ' ' {
					out.WriteString(text)
				}
			case '+':
				out.WriteString(text)
			default:
				return "", fmt.Errorf("line %d: unexpected %q", i, l)
			}
		}
	}
	for ; ai < len(al); ai++ {
		out.WriteString(al[ai])
	}
	return out.String(), nil
}

// smallLines maps each byte of s to one line over a four-letter alphabet,
// so fuzzed inputs share many equal lines and exercise Myers' tie-breaking
// rather than mostly disjoint texts. A trailing 0xff drops the final
// newline.
func smallLines(s string) string {
	var sb strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == 0xff && i == len(s)-1 {
			out := sb.String()
			return strings.TrimSuffix(out, "\n")
		}
		sb.WriteByte('a' + s[i]%4)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func checkAgainstReference(t *testing.T, a, b string) {
	t.Helper()
	got := Unified("a/x.c", "b/x.c", a, b)
	if want := refUnified("a/x.c", "b/x.c", a, b); got != want {
		t.Fatalf("Unified(%q, %q) differs from the reference:\ngot:\n%s\nwant:\n%s", a, b, got, want)
	}
	back, err := applyUnified(a, got)
	if err != nil {
		t.Fatalf("diff of %q -> %q does not apply: %v\n%s", a, b, err, got)
	}
	if back != b {
		t.Fatalf("diff of %q -> %q applies to %q\n%s", a, b, back, got)
	}
}

func FuzzDiff(f *testing.F) {
	f.Add("one\ntwo\nthree\n", "one\nTWO\nthree\n")
	f.Add("", "fresh\nlines\n")
	f.Add("gone\nsoon\n", "")
	f.Add("", "")
	f.Add("one\ntwo\n", "one\ntwo")
	f.Add("one\ntwo", "one\ntwo\n")
	f.Add("one\nold", "one\nnew")
	f.Add("x\nm1\nm2\nm3\ntail", "y\nm1\nm2\nm3\ntail")
	f.Add("\x00\x01\x02\x03\x00\x01", "\x01\x00\x02\x03\x01\x00\xff")
	f.Add("\x00\x00\x01\x01\x02\x02\x03", "\x02\x00\x01\x03\x03\x01\x00\x00")
	f.Fuzz(func(t *testing.T, a, b string) {
		// The reference's memory grows with D·(N+M); keep it to a few MB.
		if len(a)+len(b) > 1024 {
			t.Skip()
		}
		checkAgainstReference(t, a, b)
		checkAgainstReference(t, smallLines(a), smallLines(b))
	})
}

// TestReferenceEquivalence sweeps every pair of short texts over a
// two-line alphabet, where equal-cost scripts abound.
func TestReferenceEquivalence(t *testing.T) {
	var texts []string
	var gen func(prefix string, n int)
	gen = func(prefix string, n int) {
		texts = append(texts, prefix)
		if n == 0 {
			return
		}
		gen(prefix+"a\n", n-1)
		gen(prefix+"b\n", n-1)
	}
	gen("", 5)
	for _, a := range texts {
		for _, b := range texts {
			checkAgainstReference(t, a, b)
			checkAgainstReference(t, a, strings.TrimSuffix(b, "\n"))
		}
	}
}

// BenchmarkDiff diffs a 5,000-line file against a copy with five one-line
// edits spread through it — the shape of a patched source file. The
// reference's per-step snapshot of the whole diagonal array makes its
// memory grow with D·(N+M); the live band keeps it at D²+N+M.
func BenchmarkDiff(b *testing.B) {
	const n = 5000
	var src, dst strings.Builder
	for i := 0; i < n; i++ {
		line := "\tx[" + strconv.Itoa(i) + "] = compute(y, " + strconv.Itoa(i%97) + ");\n"
		src.WriteString(line)
		if i%(n/5) == n/10 {
			dst.WriteString("\tinstrument_marker(" + strconv.Itoa(i) + ");\n")
			continue
		}
		dst.WriteString(line)
	}
	a, c := src.String(), dst.String()
	for _, impl := range []struct {
		name string
		fn   func(string, string, string, string) string
	}{{"live-band", Unified}, {"reference", refUnified}} {
		b.Run(impl.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				impl.fn("a/big.c", "b/big.c", a, c)
			}
		})
	}
}
