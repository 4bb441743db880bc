//go:build !rebindcheck

package cparse

import "repro/internal/cast"

// checkRebind is set by the rebindcheck build tag (see rebindcheck.go).
const checkRebind = false

func mustMatchParse(*cast.File, Options) {}
