// Package uuid generates RFC-4122-shaped version-4 UUIDs from a caller
// supplied random source, so simulated runs produce deterministic ids.
package uuid

import (
	"encoding/hex"
	"errors"
)

// Source supplies random bytes; *sim.Rand satisfies it.
type Source interface {
	Bytes(n int) []byte
}

// UUID is a 128-bit universally unique identifier.
type UUID [16]byte

// New draws a fresh v4 UUID from src.
func New(src Source) UUID {
	var u UUID
	copy(u[:], src.Bytes(16))
	u[6] = (u[6] & 0x0f) | 0x40 // version 4
	u[8] = (u[8] & 0x3f) | 0x80 // RFC 4122 variant
	return u
}

// StringLen is the length of the canonical string form.
const StringLen = 36

// String renders the canonical 8-4-4-4-12 form.
func (u UUID) String() string {
	var buf [StringLen]byte
	return string(u.AppendTo(buf[:0]))
}

// AppendTo appends the canonical 8-4-4-4-12 form to dst.
func (u UUID) AppendTo(dst []byte) []byte {
	dst = hex.AppendEncode(dst, u[0:4])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, u[4:6])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, u[6:8])
	dst = append(dst, '-')
	dst = hex.AppendEncode(dst, u[8:10])
	dst = append(dst, '-')
	return hex.AppendEncode(dst, u[10:16])
}

// IsZero reports whether u is the all-zero UUID.
func (u UUID) IsZero() bool { return u == UUID{} }

// Parse decodes the canonical string form produced by String.
func Parse(s string) (UUID, error) {
	var u UUID
	if len(s) != 36 || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, errors.New("uuid: malformed string")
	}
	idx := 0
	for i := 0; i < len(s); {
		if i == 8 || i == 13 || i == 18 || i == 23 {
			i++ // a dash anywhere else is an invalid hex digit below
			continue
		}
		hi, ok1 := hexVal(s[i])
		lo, ok2 := hexVal(s[i+1])
		if !ok1 || !ok2 {
			return UUID{}, errors.New("uuid: invalid hex digit")
		}
		u[idx] = hi<<4 | lo
		idx++
		i += 2
	}
	return u, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
