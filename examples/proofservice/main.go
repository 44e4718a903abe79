// Proofservice drives the lcpserve HTTP daemon end to end, in process:
// it starts the service on a loopback port, registers a bipartite
// instance in the textio format, asks the server to prove it, verifies
// the certificate over POST /check and a 32-proof POST /check/batch,
// then tampers with one bit and watches the streaming NDJSON endpoint
// raise the alarm and exit early.
//
// This is exactly the amortized workload the engine behind the server
// is built for: one instance registration, many proofs, the radius-r
// views constructed once.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"

	"lcp"
	"lcp/internal/config"
	"lcp/internal/serve"
	"lcp/internal/textio"
)

func main() {
	// Start lcpserve's handler on an ephemeral loopback port — the same
	// http.Handler the daemon serves, minus the process boundary.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.New(lcp.BuiltinSchemes(), config.Config{})}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("lcpserve listening on", base)

	// 1. Register a C16 instance for the bipartite scheme. The server
	// wires a long-lived engine for it; every later check reuses it.
	in := lcp.NewInstance(lcp.Cycle(16))
	var doc bytes.Buffer
	if err := textio.Write(&doc, &textio.Document{Instance: in, SchemeName: "bipartite"}); err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/instances", "text/plain", &doc)
	if err != nil {
		log.Fatal(err)
	}
	var reg struct {
		ID    string `json:"id"`
		Nodes int    `json:"nodes"`
	}
	mustDecode(resp, &reg)
	fmt.Printf("registered instance %s (n=%d, scheme=bipartite)\n", reg.ID, reg.Nodes)

	// 2. Ask the server for a certificate: a proper 2-colouring, one
	// bit per node.
	var proved struct {
		Proof       map[string]string `json:"proof"`
		BitsPerNode int               `json:"bits_per_node"`
	}
	mustDecode(postJSON(base+"/prove", map[string]any{"instance": reg.ID}), &proved)
	fmt.Printf("server proved it with %d bit(s) per node\n", proved.BitsPerNode)

	// 3. Verify the honest certificate.
	var verdict struct {
		Accepted  bool  `json:"accepted"`
		Rejectors []int `json:"rejectors"`
	}
	mustDecode(postJSON(base+"/check", map[string]any{
		"instance": reg.ID, "proof": proved.Proof,
	}), &verdict)
	fmt.Printf("POST /check: accepted=%v\n", verdict.Accepted)

	// 4. A batch: the honest proof plus 31 single-bit corruptions. The
	// engine behind the instance checks all 32 on the cached views.
	proofs := []map[string]string{proved.Proof}
	for node := 1; node <= 31; node++ {
		key := fmt.Sprint((node % reg.Nodes) + 1)
		tampered := make(map[string]string, len(proved.Proof))
		for k, v := range proved.Proof {
			tampered[k] = v
		}
		tampered[key] = flipBits(tampered[key])
		proofs = append(proofs, tampered)
	}
	var batch struct {
		Accepted int `json:"accepted"`
		Checked  int `json:"checked"`
	}
	mustDecode(postJSON(base+"/check/batch", map[string]any{
		"instance": reg.ID, "proofs": proofs,
	}), &batch)
	fmt.Printf("POST /check/batch: %d/%d proofs accepted (only the honest one survives)\n",
		batch.Accepted, batch.Checked)

	// 5. Tamper one bit and stream verdicts with stop_on_reject: the
	// server cancels the remaining work the moment a node rejects.
	tampered := make(map[string]string, len(proved.Proof))
	for k, v := range proved.Proof {
		tampered[k] = v
	}
	tampered["5"] = flipBits(tampered["5"])
	resp = postJSON(base+"/check/stream", map[string]any{
		"instance": reg.ID, "proof": tampered, "stop_on_reject": true,
	})
	defer resp.Body.Close()
	fmt.Println("POST /check/stream with a flipped bit at node 5:")
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println("  ", line)
		if strings.Contains(line, `"done":true`) {
			var summary struct {
				Checked      int  `json:"checked"`
				Nodes        int  `json:"nodes"`
				StoppedEarly bool `json:"stopped_early"`
			}
			if err := json.Unmarshal([]byte(line), &summary); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("early exit: %d of %d verdicts streamed before the alarm (stopped_early=%v)\n",
				summary.Checked, summary.Nodes, summary.StoppedEarly)
		}
	}
	if err := sc.Err(); err != nil {
		log.Fatal(err)
	}
}

func postJSON(url string, body any) *http.Response {
	b, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	return resp
}

func mustDecode(resp *http.Response, v any) {
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		log.Fatalf("%s: unexpected status %d", resp.Request.URL, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

// flipBits inverts every bit of a proof string, guaranteeing the
// 2-colouring constraint breaks at the node's boundary.
func flipBits(bits string) string {
	out := []byte(bits)
	for i, b := range out {
		if b == '0' {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
