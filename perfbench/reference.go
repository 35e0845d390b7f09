package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// The reference digests pin the program's outputs: the sweep's cell dump,
// every grid cell's /v1/infer body and every distinct body of the hot mix.
// They were written from the program with -write-reference; a change that
// alters an output on purpose writes them again.
//
//go:embed reference
var referenceFS embed.FS

const (
	refSweep = "reference/sweep.txt" // SHA-256 of Sweep.WriteCells
	refGrid  = "reference/grid.txt"  // one body digest per grid cell, grid order
	refHot   = "reference/hot.txt"   // digest, path and body per hot key
)

// bodyDigest is the digest a response body is checked by: 32 bits of
// FNV-1a, which keeps the per-cell reference file small.
func bodyDigest(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// references are the loaded digests.
type references struct {
	sweep string
	grid  []uint32
	hot   []uint32
}

func loadReferences() (*references, error) {
	ref := &references{}
	b, err := referenceFS.ReadFile(refSweep)
	if err != nil {
		return nil, err
	}
	ref.sweep = strings.TrimSpace(string(b))
	if ref.grid, err = readDigests(refGrid); err != nil {
		return nil, err
	}
	if ref.hot, err = readDigests(refHot); err != nil {
		return nil, err
	}
	return ref, nil
}

// readDigests reads the first tab-separated field of each line as hex.
func readDigests(name string) ([]uint32, error) {
	b, err := referenceFS.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var out []uint32
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		field, _, _ := strings.Cut(sc.Text(), "\t")
		v, err := strconv.ParseUint(field, 16, 32)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, uint32(v))
	}
	return out, sc.Err()
}

// sweepDigest hashes the sweep's cell dump.
func sweepDigest(write func(io.Writer) error) (string, error) {
	h := sha256.New()
	if err := write(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeReferences regenerates the reference files under dir from the
// program's current outputs.
func writeReferences(dir string) error {
	sweep, grid, hot, err := referenceOutputs()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(dir, "reference"), 0o755); err != nil {
		return err
	}
	files := map[string]string{refSweep: sweep + "\n", refGrid: grid, refHot: hot}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			return err
		}
	}
	return nil
}
