package prov

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"passcloud/internal/uuid"
)

// goldenBundles is the fixed input of the wire-format golden test: every
// record kind, a multi-byte version varint, a value over 1 KB (two-byte
// length prefix), a name PASS does not define, and the empty-records bundle.
func goldenBundles() []Bundle {
	proc := Ref{UUID: uuid.UUID{0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x46, 0x17, 0x98, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f}, Version: 1}
	file := Ref{UUID: uuid.UUID{0xa0, 0xa1, 0xa2, 0xa3, 0xa4, 0xa5, 0x46, 0xa7, 0x98, 0xa9, 0xaa, 0xab, 0xac, 0xad, 0xae, 0xaf}, Version: 300}
	prev := Ref{UUID: file.UUID, Version: 299}
	pipe := Ref{UUID: uuid.UUID{0xf0, 1, 2, 3, 4, 5, 0x46, 7, 0x98, 9, 10, 11, 12, 13, 14, 15}, Version: 2}
	return []Bundle{
		{Ref: proc, Type: Process, Name: "gcc", Records: []Record{
			{Attr: AttrType, Value: "proc"},
			{Attr: AttrName, Value: "gcc"},
			{Attr: AttrArgv, Value: "-O2 -c main.c"},
			{Attr: AttrEnv, Value: "PATH=/bin"},
			{Attr: AttrPID, Value: "4711"},
			{Attr: AttrStartTime, Value: "1262304000"},
		}},
		{Ref: file, Type: File, Name: "mnt/out/main.o", Records: []Record{
			{Attr: AttrType, Value: "file"},
			{Attr: AttrName, Value: "mnt/out/main.o"},
			{Attr: AttrInput, Xref: proc},
			{Attr: AttrPrevVer, Xref: prev},
			{Attr: AttrForkParent, Xref: proc},
			{Attr: AttrExecFile, Xref: prev},
			{Attr: "x-annotation", Value: ""},
			{Attr: AttrEnv, Value: strings.Repeat("0123456789abcdef", 94)}, // 1504 bytes: spills in the database
		}},
		{Ref: pipe, Type: Pipe},
	}
}

// The digests below were captured from the encoder at the commit before
// the exact-size rewrite (0f2dc8a); they pin the format, not the code.
const (
	goldenPipeHex    = "5053f00102030405460798090a0b0c0d0e0f02020000"
	goldenPayloadLen = 1835
	goldenPayloadSHA = "5198e28bcb7780be8deccf9bbf2d102ca4c71cb38ef063c2df4c5eb3d48ba7b7"
)

func TestWireGoldenBytes(t *testing.T) {
	bs := goldenBundles()
	if got := hex.EncodeToString(EncodeBundles(bs[2:])); got != goldenPipeHex {
		t.Errorf("empty-records bundle encodes as\n %s, want\n %s", got, goldenPipeHex)
	}
	payload := EncodeBundles(bs)
	sum := sha256.Sum256(payload)
	if len(payload) != goldenPayloadLen || hex.EncodeToString(sum[:]) != goldenPayloadSHA {
		t.Errorf("payload is %d bytes, sha256 %x; want %d bytes, %s", len(payload), sum, goldenPayloadLen, goldenPayloadSHA)
	}
	var appended []byte
	for _, b := range bs {
		appended = AppendBundle(appended, b)
	}
	if string(appended) != string(payload) {
		t.Error("AppendBundle and EncodeBundles disagree")
	}
}
