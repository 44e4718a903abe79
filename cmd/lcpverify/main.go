// Command lcpverify proves and verifies locally checkable proofs stored
// in the textio instance format, so certificates can be produced by one
// party and independently checked by another.
//
// Verify a self-describing instance file (graph + scheme + proof):
//
//	lcpverify check instance.lcp
//
// Generate a proof for an instance file and print the completed document:
//
//	lcpverify prove instance.lcp > certified.lcp
//
// List the available schemes:
//
//	lcpverify schemes
package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"lcp"
	"lcp/internal/textio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "check":
		requireFile()
		if err := check(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "lcpverify:", err)
			os.Exit(1)
		}
	case "prove":
		requireFile()
		if err := prove(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "lcpverify:", err)
			os.Exit(1)
		}
	case "schemes":
		listSchemes()
	default:
		usage()
	}
}

func requireFile() {
	if len(os.Args) < 3 {
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: lcpverify {check|prove} <file> | lcpverify schemes")
	os.Exit(2)
}

func load(path string) (*textio.Document, lcp.Scheme, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	doc, err := textio.Parse(f)
	if err != nil {
		return nil, nil, err
	}
	if doc.SchemeName == "" {
		return nil, nil, fmt.Errorf("%s: no scheme directive; add e.g. \"scheme bipartite\"", path)
	}
	scheme, ok := lcp.BuiltinSchemes()[doc.SchemeName]
	if !ok {
		return nil, nil, fmt.Errorf("unknown scheme %q (see: lcpverify schemes)", doc.SchemeName)
	}
	return doc, scheme, nil
}

func check(path string) error {
	doc, scheme, err := load(path)
	if err != nil {
		return err
	}
	// Two façade checkers: the certificate is checked on both the
	// shared-memory engine and the message-passing runtime.
	chk, err := lcp.NewChecker(doc.Instance, lcp.WithScheme(scheme))
	if err != nil {
		return err
	}
	dchk, err := lcp.NewChecker(doc.Instance, lcp.WithScheme(scheme), lcp.WithBackend(lcp.BackendDist))
	if err != nil {
		return err
	}
	ctx := context.Background()
	rep, err := chk.Check(ctx, doc.Proof)
	if err != nil {
		return err
	}
	drep, err := dchk.Check(ctx, doc.Proof)
	if err != nil {
		return err
	}
	if rep.Accepted() != drep.Accepted() {
		return fmt.Errorf("runner disagreement: shared-memory %s, message-passing %s",
			rep.Result(), drep.Result())
	}
	fmt.Printf("%s: scheme=%s n=%d proof=%d bits/node: %s\n",
		path, scheme.Name(), doc.Instance.G.N(), doc.Proof.Size(), rep.Result())
	if !rep.Accepted() {
		fmt.Printf("alarms at nodes %v\n", rep.Rejectors())
		os.Exit(1)
	}
	return nil
}

func prove(path string) error {
	doc, scheme, err := load(path)
	if err != nil {
		return err
	}
	proof, res, err := lcp.ProveAndCheck(doc.Instance, scheme)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "lcpverify: proved %s: %d bits/node, %s\n",
		scheme.Name(), proof.Size(), res)
	doc.Proof = proof
	return textio.Write(os.Stdout, doc)
}

func listSchemes() {
	reg := lcp.BuiltinSchemes()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Println(name)
	}
}
