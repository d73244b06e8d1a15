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

// Parse decodes the canonical string form produced by String, its hex in
// either case.
func Parse(s string) (UUID, error) { return parse(s, 0xe0) }

// ParseLower decodes the canonical string form exactly as String prints
// it: upper-case hex is an invalid digit.
func ParseLower(s string) (UUID, error) { return parse(s, 0xf0) }

// hexVal maps a byte to the value of the hex digit it is, with 0x10 set for
// an upper-case one, and any other byte to 0xff.
var hexVal = func() (t [256]byte) {
	for i := range t {
		t[i] = 0xff
	}
	for i := range byte(16) {
		t["0123456789ABCDEF"[i]] = i | 0x10
		t["0123456789abcdef"[i]] = i
	}
	return t
}()

// hexAt is where each byte's two digits start in the string form.
var hexAt = [16]int{0, 2, 4, 6, 9, 11, 14, 16, 19, 21, 24, 26, 28, 30, 32, 34}

// parse decodes the 8-4-4-4-12 form, refusing a digit whose hexVal has a bit
// of reject set.
func parse(s string, reject byte) (UUID, error) {
	var u UUID
	if len(s) != StringLen || s[8] != '-' || s[13] != '-' || s[18] != '-' || s[23] != '-' {
		return u, errors.New("uuid: malformed string")
	}
	for k, i := range hexAt {
		hi, lo := hexVal[s[i]], hexVal[s[i+1]]
		if (hi|lo)&reject != 0 {
			return UUID{}, errors.New("uuid: invalid hex digit")
		}
		u[k] = hi<<4 | lo&0xf
	}
	return u, nil
}
