package transform

import (
	"sort"
	"strings"

	"repro/internal/ctoken"
)

// Retoken returns the token file that lexing src (the set's rendered
// output) under lo would produce, derived from the edits instead of a full
// lex, together with the sorted indices of the tokens whose text changed.
// It succeeds only when every edit is a same-kinds replacement: a run of
// deleted tokens with one Inline or BeforeOwnLine insertion at its first
// token, whose text lexes to exactly as many tokens of the same kinds, with
// the run's interior whitespace, differing from the deleted tokens only in
// identifier texts and in one-line preprocessor directives. Token indices,
// line numbers and whitespace then carry over unchanged and only offsets
// and columns shift. src must be the old source with exactly those texts
// swapped, byte for byte; when anything does not hold, ok is false and the
// caller lexes src in full. The set's own token file is never modified.
func (e *EditSet) Retoken(src string, lo ctoken.Options) (f *ctoken.File, changed []int, ok bool) {
	if len(e.ins) == 0 || lo.SmPL {
		return nil, nil, false
	}
	old := e.file.Tokens
	texts := make(map[int]string, len(e.ins))
	for _, in := range e.ins {
		if _, dup := texts[in.Anchor]; dup || (in.Place != Inline && in.Place != BeforeOwnLine) || !e.del[in.Anchor] {
			return nil, nil, false
		}
		texts[in.Anchor] = in.Text
	}
	anchors := make([]int, 0, len(texts))
	for a := range texts {
		anchors = append(anchors, a)
	}
	sort.Ints(anchors)

	// Each anchor starts a run that extends over the deleted tokens after
	// it, up to the next anchor; together the runs must cover every
	// deletion.
	type swap struct {
		at   int
		text string
	}
	var swaps []swap
	covered := 0
	for _, a := range anchors {
		b := a
		for e.del[b+1] {
			if _, next := texts[b+1]; next {
				break
			}
			b++
		}
		covered += b - a + 1
		sub, err := ctoken.Lex(e.file.Name, texts[a], lo)
		if err != nil || len(sub.Tokens)-1 != b-a+1 || sub.Tokens[0].WS != "" || sub.Tokens[len(sub.Tokens)-1].WS != "" {
			return nil, nil, false
		}
		for k, nt := range sub.Tokens[:b-a+1] {
			ot := old[a+k]
			if nt.Kind != ot.Kind || (k > 0 && nt.WS != ot.WS) {
				return nil, nil, false
			}
			if nt.Text == ot.Text {
				continue
			}
			if nt.Kind != ctoken.Ident && !(nt.Kind == ctoken.PP && oneLineDirective(ot.Text) && oneLineDirective(nt.Text)) {
				return nil, nil, false
			}
			swaps = append(swaps, swap{a + k, nt.Text})
		}
		// A renamed identifier at a run boundary with no whitespace must
		// not merge with its neighbour in a lex of src: a preceding name
		// or number would absorb it, and an encoding prefix (L, u8, R, ...)
		// would absorb a following string or character literal.
		if old[a].Kind == ctoken.Ident && old[a].WS == "" && a > 0 && wordLike(old[a-1].Kind) {
			return nil, nil, false
		}
		if next := old[b+1]; old[b].Kind == ctoken.Ident && next.WS == "" &&
			(wordLike(next.Kind) || next.Kind == ctoken.StringLit || next.Kind == ctoken.CharLit) {
			return nil, nil, false
		}
	}
	if covered != len(e.del) {
		return nil, nil, false // a deletion without a replacement
	}

	// src must be the old source with each swapped token's text replaced
	// at its offset: compare the unchanged stretches between swaps as
	// whole byte ranges.
	oldSrc := e.file.Src
	toks := make([]ctoken.Token, len(old))
	copy(toks, old)
	changed = make([]int, 0, len(swaps))
	oldOff, newOff := 0, 0
	for _, sw := range swaps {
		n := old[sw.at].Pos.Offset - oldOff
		if n < 0 || oldOff+n+len(old[sw.at].Text) > len(oldSrc) || newOff+n+len(sw.text) > len(src) ||
			src[newOff:newOff+n] != oldSrc[oldOff:oldOff+n] ||
			src[newOff+n:newOff+n+len(sw.text)] != sw.text {
			return nil, nil, false
		}
		newOff += n + len(sw.text)
		oldOff += n + len(old[sw.at].Text)
		toks[sw.at].Text = sw.text
		changed = append(changed, sw.at)
	}
	if src[newOff:] != oldSrc[oldOff:] {
		return nil, nil, false
	}

	// Offsets shift by the growth of the texts before them; columns shift
	// for the rest of a changed token's line. Lines do not move.
	shift, ci := 0, 0
	for i := range toks {
		toks[i].Pos.Offset += shift
		if ci < len(changed) && changed[ci] == i {
			d := len(toks[i].Text) - len(old[i].Text)
			shift += d
			ci++
			for j := i + 1; j < len(toks) && strings.IndexByte(toks[j].WS, '\n') < 0 && strings.IndexByte(toks[j-1].Text, '\n') < 0; j++ {
				toks[j].Pos.Col += d
			}
		}
	}
	return &ctoken.File{Name: e.file.Name, Src: src, Tokens: toks}, changed, true
}

// oneLineDirective reports whether a directive's text stays one line
// wherever it is written: it has no line break, and no trailing backslash
// that would splice it to the next line.
func oneLineDirective(text string) bool {
	return !strings.ContainsAny(text, "\r\n") && !strings.HasSuffix(text, "\\")
}

// wordLike reports whether a token of kind k ends or begins with identifier
// characters, so an identifier written against it would lex as one token
// with it.
func wordLike(k ctoken.Kind) bool {
	return k == ctoken.Ident || k == ctoken.IntLit || k == ctoken.FloatLit
}
