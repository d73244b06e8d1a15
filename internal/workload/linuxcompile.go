package workload

import (
	"fmt"
	"strings"

	"passcloud/internal/prov"
	"passcloud/internal/sim"
	"passcloud/internal/uuid"
)

// CompileProvenance generates a Linux-compile-shaped provenance stream of
// approximately targetBytes encoded size, for the Table-2 service upload
// microbenchmark ("the first 50MB of provenance generated during a Linux
// compile"). The stream is topologically ordered (headers and sources
// first, then the gcc process that read them, then its object file) and its
// record mix matches a compile: processes with long command lines and
// environments — a few large enough to exceed the database's 1 KB value
// limit — and object files with many input references.
func CompileProvenance(rnd *sim.Rand, targetBytes int) []prov.Bundle {
	var (
		out   []prov.Bundle
		total int
		unit  int
	)
	env := []string{
		"PATH=/usr/local/sbin:/usr/local/bin:/usr/sbin:/usr/bin:/sbin:/bin:/usr/x86_64-linux-gnu/bin",
		"HOME=/root",
		"LANG=C",
		"SHELL=/bin/bash",
		"MAKEFLAGS=-j2 --no-print-directory",
		"KBUILD_OUTPUT=/usr/src/linux-2.6.23.17/build",
		"KBUILD_BUILD_HOST=pass-build-01.eecs.harvard.edu",
		"KBUILD_BUILD_USER=kiran",
		"ARCH=x86_64",
		"CROSS_COMPILE=",
		"CC=gcc -m64 -mcmodel=kernel -fno-builtin-sprintf -fno-builtin-log2",
		"LD=ld -m elf_x86_64 --emit-relocs --build-id=none",
		"TERM=xterm-256color",
		"LOGNAME=root",
		"OLDPWD=/usr/src/linux-2.6.23.17/drivers",
		"PWD=/usr/src/linux-2.6.23.17",
		"LS_COLORS=rs=0:di=01;34:ln=01;36:mh=00:pi=40;33:so=01;35:do=01;35",
		"SSH_CONNECTION=140.247.60.12 52422 140.247.60.30 22",
		"LD_LIBRARY_PATH=/usr/local/lib:/usr/lib64:/lib64",
		"MANPATH=/usr/local/share/man:/usr/share/man",
	}
	newRef := func() prov.Ref {
		return prov.Ref{UUID: uuid.New(rnd), Version: 1}
	}
	add := func(b prov.Bundle) {
		out = append(out, b)
		total += b.EncodedSize()
	}
	// Shared headers every compilation unit includes.
	var headers []prov.Ref
	for i := 0; i < 24; i++ {
		h := prov.Bundle{
			Ref: newRef(), Type: prov.File, Name: fmt.Sprintf("include/linux/h%02d.h", i),
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: fmt.Sprintf("include/linux/h%02d.h", i)},
			},
		}
		headers = append(headers, h.Ref)
		add(h)
	}
	for total < targetBytes {
		srcName := fmt.Sprintf("drivers/subsys%02d/unit%06d.c", unit%37, unit)
		src := prov.Bundle{
			Ref: newRef(), Type: prov.File, Name: srcName,
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: srcName},
				{Attr: "st_size", Value: fmt.Sprint(2048 + rnd.Intn(64<<10))},
				{Attr: "st_mode", Value: "0644"},
			},
		}
		add(src)

		gcc := prov.Bundle{Ref: newRef(), Type: prov.Process, Name: "gcc"}
		gcc.Records = append(gcc.Records,
			prov.Record{Attr: prov.AttrType, Value: "proc"},
			prov.Record{Attr: prov.AttrName, Value: "gcc"},
			prov.Record{Attr: prov.AttrPID, Value: fmt.Sprint(2000 + unit)},
			prov.Record{Attr: prov.AttrStartTime, Value: fmt.Sprintf("%dms", 17*unit)},
		)
		argv := []string{
			"gcc", "-Wp,-MD,.tmp.d", "-nostdinc", "-isystem", "/usr/lib/gcc/x86_64/4.1.2/include",
			"-D__KERNEL__", "-Iinclude", "-Wall", "-Wundef", "-Wstrict-prototypes",
			"-fno-strict-aliasing", "-fno-common", "-Os", "-m64", "-mno-red-zone",
			"-c", srcName, "-o", fmt.Sprintf("drivers/subsys%02d/unit%06d.o", unit%37, unit),
		}
		for _, a := range argv {
			gcc.Records = append(gcc.Records, prov.Record{Attr: prov.AttrArgv, Value: a})
		}
		for _, e := range env {
			gcc.Records = append(gcc.Records, prov.Record{Attr: prov.AttrEnv, Value: e})
		}
		// The occasional process drags a pathological environment variable
		// past the 1 KB limit (spill path exercise).
		if unit%2000 == 0 {
			gcc.Records = append(gcc.Records, prov.Record{
				Attr: prov.AttrEnv, Value: "KBUILD_EXTRA_FLAGS=" + strings.Repeat("-f", 700),
			})
		}
		gcc.Records = append(gcc.Records, prov.Record{Attr: prov.AttrInput, Xref: src.Ref})
		for h := 0; h < 9; h++ {
			gcc.Records = append(gcc.Records, prov.Record{
				Attr: prov.AttrInput, Xref: headers[(unit+h)%len(headers)],
			})
		}
		add(gcc)

		objName := fmt.Sprintf("drivers/subsys%02d/unit%06d.o", unit%37, unit)
		obj := prov.Bundle{
			Ref: newRef(), Type: prov.File, Name: objName,
			Records: []prov.Record{
				{Attr: prov.AttrType, Value: "file"},
				{Attr: prov.AttrName, Value: objName},
				{Attr: "st_size", Value: fmt.Sprint(4096 + rnd.Intn(128<<10))},
				{Attr: "st_mode", Value: "0644"},
				{Attr: prov.AttrInput, Xref: gcc.Ref},
			},
		}
		add(obj)
		unit++
	}
	return out
}

// UnitsOf reports how many compilation units (source/gcc/object triples) a
// compile stream holds; the Table-2 S3 upload groups provenance per unit.
func UnitsOf(bundles []prov.Bundle) int {
	n := 0
	for _, b := range bundles {
		if b.Type == prov.Process {
			n++
		}
	}
	return n
}
