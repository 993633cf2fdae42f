// Package fix exercises errswallow: flagged discards, the never-fail
// receiver exemptions, the stderr exemption, and the suppression path.
package fix

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"strings"
)

// respond re-introduces the exact writeJSON-shaped bug this analyzer
// exists to catch: the Encode error vanishes and the client gets a 2xx
// with a truncated body nobody counts.
func respond(w http.ResponseWriter, v any) {
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.Encode(v) // want "error result of Encode is discarded"
}

func marshalDrop(v any) []byte {
	raw, _ := json.Marshal(v) // want "error result of Marshal is discarded"
	return raw
}

func closeDrop(f *os.File) {
	f.Close() // want "error result of Close is discarded"
}

func deferredCloseOK(f *os.File) []byte {
	defer f.Close() // deferred closes are the read-path idiom: not flagged
	return nil
}

func buffersOK() string {
	var b strings.Builder
	b.WriteString("x")
	var buf bytes.Buffer
	buf.Write([]byte("y"))
	return b.String() + buf.String()
}

func hashOK(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p) // hash.Hash documents Write never returns an error
	return h.Sum64()
}

func fprintfSinks(f *os.File, w http.ResponseWriter, b *strings.Builder) {
	fmt.Fprintf(f, "x")            // want "error result of Fprintf is discarded"
	fmt.Fprintf(w, "y")            // want "error result of Fprintf is discarded"
	fmt.Fprintf(os.Stderr, "diag") // stderr is best-effort terminal output
	fmt.Fprintf(b, "z")            // in-memory sink: not flagged
}

func handledOK(f *os.File) error {
	if err := f.Close(); err != nil {
		return err
	}
	return nil
}

func suppressed(f *os.File) {
	//lint:ignore errswallow fixture proves the suppression path works
	f.Close()
}

// A directive that suppresses nothing is itself a finding: the handled
// Close below raises no errswallow diagnostic for it to match.
func staleSuppression(f *os.File) error {
	//lint:ignore errswallow nothing on the next line discards an error // want "matched no errswallow diagnostic"
	return f.Close()
}
