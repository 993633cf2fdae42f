// Serve example: a client for the corrfused fusion service (cmd/fused).
// It writes a small training store, tells you how to start the server, then
// drives the API end to end: ingest claims from two copying extractors and
// an unreliable one, read the instantly-fresh live probabilities (the
// snapshot's model over each claimed pattern), force a batch re-fusion,
// and observe that it serves the same values from the new snapshot.
//
// Run in one terminal:
//
//	go run ./examples/serve -write-store /tmp/demo.jsonl
//	go run ./cmd/fused -store /tmp/demo.jsonl -addr :8080 -smoothing 0.1 -wal /tmp/demo-wal
//
// (-wal makes every acknowledged observe durable before the ack — kill the
// server however you like and restart it: nothing acknowledged is lost)
// and in another:
//
//	go run ./examples/serve -addr http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"

	"corrfuse/internal/store"
	"corrfuse/internal/triple"
)

func main() {
	addr := flag.String("addr", "http://localhost:8080", "base URL of a running fused server")
	writeStore := flag.String("write-store", "", "write the demo training store to this path and exit")
	flag.Parse()

	if *writeStore != "" {
		if err := writeDemoStore(*writeStore); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote demo store to %s\n", *writeStore)
		fmt.Printf("start the service with:\n\tgo run ./cmd/fused -store %s -addr :8080 -smoothing 0.1 -wal %s-wal\n", *writeStore, *writeStore)
		return
	}
	if err := drive(*addr); err != nil {
		log.Fatal(err)
	}
}

// writeDemoStore builds the training data: copy1 and copy2 are perfect
// copies, indie is independent and unreliable.
func writeDemoStore(path string) error {
	st := store.New()
	tr := func(s, o string) triple.Triple {
		return triple.Triple{Subject: s, Predicate: "capital", Object: o}
	}
	for i, city := range []string{"Paris", "Rome", "Berlin", "Madrid", "Lisbon", "Vienna", "Dublin", "Oslo"} {
		srcs := []string{"copy1", "copy2"}
		if i%3 == 0 {
			srcs = append(srcs, "indie")
		}
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("country%d", i), city), Sources: srcs, Label: "true"})
	}
	for i, city := range []string{"Gotham", "Atlantis", "Springfield"} {
		st.Put(store.Entry{Triple: tr(fmt.Sprintf("fake%d", i), city), Sources: []string{"indie"}, Label: "false"})
	}
	// A wrong triple both copiers repeat: trains their joint false
	// positive rate, which is what the batch model corrects with.
	st.Put(store.Entry{Triple: tr("fake3", "Shangri-La"), Sources: []string{"copy1", "copy2"}, Label: "false"})
	return st.Save(path)
}

func drive(base string) error {
	// 1. Ingest: the same new claim from both copying sources.
	fmt.Println("== ingest {Elbonia, capital, Bugtown} from copy1, then copy2 ==")
	for _, src := range []string{"copy1", "copy2"} {
		out, err := call("POST", base+"/v1/observe", map[string]string{
			"source": src, "subject": "Elbonia", "predicate": "capital", "object": "Bugtown",
		})
		if err != nil {
			return err
		}
		fmt.Printf("after %s: %s\n", src, out)
	}

	// 2. Query: answered from the live scorer (live=true).
	fmt.Println("\n== query the triple (served live between refreshes) ==")
	out, err := call("GET", base+"/v1/triple?subject=Elbonia&predicate=capital&object=Bugtown", nil)
	if err != nil {
		return err
	}
	fmt.Println(out)

	// 3. Batch score a few triples in one request.
	fmt.Println("\n== batch score ==")
	out, err = call("POST", base+"/v1/score", map[string]any{
		"triples": []map[string]string{
			{"subject": "Elbonia", "predicate": "capital", "object": "Bugtown"},
			{"subject": "country0", "predicate": "capital", "object": "Paris"},
		},
	})
	if err != nil {
		return err
	}
	fmt.Println(out)

	// 4. Re-fuse: the snapshot now records the claims; the live answer
	// already discounted the copy.
	fmt.Println("\n== force a batch re-fusion ==")
	out, err = call("POST", base+"/v1/refuse", map[string]string{})
	if err != nil {
		return err
	}
	fmt.Println(out)

	fmt.Println("\n== query again (same probability from the snapshot, live=false) ==")
	out, err = call("GET", base+"/v1/triple?subject=Elbonia&predicate=capital&object=Bugtown", nil)
	if err != nil {
		return err
	}
	fmt.Println(out)

	// 5. Subject listing: served from the immutable per-snapshot index —
	// pre-ranked by probability at re-fusion time, with matching snapshot
	// and index versions proving the response came from one generation.
	fmt.Println("\n== fused results about Elbonia (pre-ranked, snapshot-consistent) ==")
	out, err = call("GET", base+"/v1/subject/Elbonia", nil)
	if err != nil {
		return err
	}
	fmt.Println(out)

	// 6. Everything the service knows about a source, and its health.
	fmt.Println("\n== entries provided by indie ==")
	out, err = call("GET", base+"/v1/source/indie", nil)
	if err != nil {
		return err
	}
	fmt.Println(out)
	out, err = call("GET", base+"/healthz", nil)
	if err != nil {
		return err
	}
	fmt.Printf("\nhealth: %s\n", out)
	return nil
}

func call(method, url string, body any) (string, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return "", err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return "", err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("%s %s: %d: %s", method, url, resp.StatusCode, raw)
	}
	return string(bytes.TrimSpace(raw)), nil
}
