package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// revision returns the git commit checked out in the working directory,
// read straight from .git, or "unknown" outside a git checkout (an exported
// tree); sourceDigest identifies the code in either case.
func revision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and content of every Go source and module
// file under the working directory, skipping hidden directories (VCS data,
// build output), so two rows with the same digest measured the same code.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path)))
		h.Write([]byte{0})
		h.Write(b)
		h.Write([]byte{0})
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
