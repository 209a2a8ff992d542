// Package testutil holds test helpers: for the smoke tests that run the
// cmd/ and examples/ binaries in-process (each test points os.Args at a
// tiny embedded input, captures stdout, and calls the package's main()),
// and a goroutine stack diff for exact leak checks.
package testutil

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// CaptureStdout runs f with os.Stdout redirected into a pipe and returns
// everything it printed.  The pipe is drained concurrently so f cannot block
// on a full pipe buffer.
func CaptureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("testutil: pipe: %v", err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	defer func() { // restore on panic too; double Close just errors harmlessly
		os.Stdout = old
		w.Close()
		r.Close()
	}()
	f()
	os.Stdout = old
	w.Close()
	return <-done
}

// WriteFile drops content into dir/name and returns the full path.
func WriteFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := dir + "/" + name
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("testutil: write %s: %v", path, err)
	}
	return path
}
