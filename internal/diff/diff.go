// Package diff produces POSIX-style unified diffs between two texts using
// the Myers O(ND) shortest-edit-script algorithm. The semantic patch engine
// reports every transformation as a unified diff, mirroring spatch's default
// output mode.
package diff

import (
	"fmt"
	"strings"
)

// Unified returns a unified diff of a -> b with the given file labels and
// three lines of context. It returns "" when the inputs are identical.
func Unified(labelA, labelB, a, b string) string {
	if a == b {
		return ""
	}
	al := splitLines(a)
	bl := splitLines(b)
	ops := myers(al, bl)
	return format(labelA, labelB, al, bl, ops, 3)
}

type opKind uint8

const (
	opEq opKind = iota
	opDel
	opIns
)

type op struct {
	kind opKind
	// ai/bi index the source line (for del/eq) and destination line (ins/eq).
	ai, bi int
}

func splitLines(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.SplitAfter(s, "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// myers computes the greedy Myers shortest edit script. The common prefix
// is consumed up front — it is exactly the d=0 snake — and each later step
// snapshots only the diagonals the previous step wrote, v[-(d-1)..d-1], in
// an exactly sized slice. Memory is therefore D²+O(N+M) rather than a full
// copy of v per step. The common suffix is
// deliberately not trimmed: greedy Myers may pick a different one of two
// equal-cost scripts on the trimmed input, and output must stay stable.
func myers(a, b []string) []op {
	n, m := len(a), len(b)
	max := n + m
	if max == 0 {
		return nil
	}
	p := 0
	for p < n && p < m && a[p] == b[p] {
		p++
	}
	offset := max
	v := make([]int, 2*max+1)
	v[offset] = p
	var trace [][]int
	dFound := 0
	if p < n || p < m {
	loop:
		for d := 1; d <= max; d++ {
			trace = append(trace, append([]int(nil), v[offset-d+1:offset+d]...))
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
	}
	// Backtrack, filling the script from its end: it holds one op per line
	// of a plus one per inserted line of b.
	ops := make([]op, (n+m+dFound)/2)
	i := len(ops)
	emit := func(o op) {
		i--
		ops[i] = o
	}
	x, y := n, m
	for d := dFound; d > 0; d-- {
		// vprev[d-1+k] is v[k] as step d found it, for k in [-(d-1), d-1].
		vprev := trace[d-1]
		k := x - y
		var prevK int
		if k == -d || (k != d && vprev[d-1+k-1] < vprev[d-1+k+1]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vprev[d-1+prevK]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			x--
			y--
			emit(op{opEq, x, y})
		}
		if x == prevX {
			y--
			emit(op{opIns, x, y})
		} else {
			x--
			emit(op{opDel, x, y})
		}
	}
	// Back on diagonal 0: what remains is the common prefix.
	for x > 0 {
		x--
		emit(op{opEq, x, x})
	}
	return ops
}

// format renders hunks with n lines of context.
func format(labelA, labelB string, a, b []string, ops []op, ctx int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n", labelA, labelB)

	type hunk struct {
		ops []op
	}
	var hunks []hunk
	var cur []op
	eqRun := 0
	for _, o := range ops {
		if o.kind == opEq {
			eqRun++
			if len(cur) > 0 && eqRun > 2*ctx {
				// close current hunk, keep ctx of trailing context
				trail := cur[:len(cur)-(eqRun-ctx-1)]
				hunks = append(hunks, hunk{ops: trail})
				cur = nil
				eqRun = ctx + 1 // context we will prepend if a change follows
			}
			cur = append(cur, o)
		} else {
			if len(cur) == 0 || allEq(cur) {
				// trim leading context to ctx lines
				if len(cur) > ctx {
					cur = cur[len(cur)-ctx:]
				}
			}
			eqRun = 0
			cur = append(cur, o)
		}
	}
	if len(cur) > 0 && !allEq(cur) {
		// trim trailing context
		i := len(cur)
		for i > 0 && cur[i-1].kind == opEq {
			i--
		}
		if len(cur)-i > ctx {
			cur = cur[:i+ctx]
		}
		hunks = append(hunks, hunk{ops: cur})
	}

	for _, h := range hunks {
		if len(h.ops) == 0 {
			continue
		}
		aStart, bStart := -1, -1
		var aCount, bCount int
		for _, o := range h.ops {
			switch o.kind {
			case opEq:
				if aStart < 0 {
					aStart, bStart = o.ai, o.bi
				}
				aCount++
				bCount++
			case opDel:
				if aStart < 0 {
					aStart, bStart = o.ai, o.bi
				}
				aCount++
			case opIns:
				if aStart < 0 {
					aStart, bStart = o.ai, o.bi
				}
				bCount++
			}
		}
		// POSIX: a zero-length range names the line *before* which the
		// change applies, so pure insertions/deletions print the 0-based
		// position (e.g. "@@ -0,0 +1,N @@" for inserting into an empty
		// file), not start+1.
		aPos, bPos := aStart+1, bStart+1
		if aCount == 0 {
			aPos = aStart
		}
		if bCount == 0 {
			bPos = bStart
		}
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", aPos, aCount, bPos, bCount)
		for _, o := range h.ops {
			switch o.kind {
			case opEq:
				writeLine(&sb, " ", a[o.ai])
			case opDel:
				writeLine(&sb, "-", a[o.ai])
			case opIns:
				writeLine(&sb, "+", b[o.bi])
			}
		}
	}
	return sb.String()
}

func allEq(ops []op) bool {
	for _, o := range ops {
		if o.kind != opEq {
			return false
		}
	}
	return true
}

// writeLine emits one hunk line. Only a file's final line can lack the
// trailing newline (splitLines keeps terminators); POSIX requires it to be
// flagged with a "\ No newline at end of file" marker rather than silently
// gaining one, so that patch(1) reproduces the original byte-for-byte.
func writeLine(sb *strings.Builder, prefix, line string) {
	sb.WriteString(prefix)
	if strings.HasSuffix(line, "\n") {
		sb.WriteString(line)
		return
	}
	sb.WriteString(line)
	sb.WriteString("\n\\ No newline at end of file\n")
}
