// Command bsublint runs the repo-specific static analyzers over the
// module in the current directory and prints findings as
// file:line: analyzer: message, exiting non-zero when anything is
// flagged. See internal/lint for the analyzers and DESIGN.md §9 for the
// invariants they enforce.
//
// Usage:
//
//	bsublint [-analyzers name,name] [-format text|json] [-list] [packages ...]
//
// -format json emits the findings as a JSON array of
// {file, line, analyzer, message} objects on stdout (an empty run emits
// []); exit codes are unchanged. Every run loads, type-checks and
// analyzes the requested packages in full.
//
// Findings can be suppressed at the site with
// //lint:ignore bsub/<analyzer> reason — the directive covers its own
// line and the line below it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"bsub/internal/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -format json element schema. It is flat on purpose:
// CI consumers match on file/line/analyzer without knowing about
// go/token positions.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is the testable driver body: 0 clean, 1 findings, 2 usage or
// load failure.
func run(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bsublint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	names := flags.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	format := flags.String("format", "text", "output format: text or json")
	list := flags.Bool("list", false, "list analyzers and exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "bsublint: unknown -format %q (want text or json)\n", *format)
		return 2
	}
	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	analyzers := lint.All()
	if *names != "" {
		var err error
		analyzers, err = lint.ByName(*names)
		if err != nil {
			fmt.Fprintln(stderr, "bsublint:", err)
			return 2
		}
	}

	prog, err := lint.LoadModule(dir, flags.Args()...)
	if err != nil {
		fmt.Fprintln(stderr, "bsublint:", err)
		return 2
	}
	findings, suppressed := prog.Run(analyzers...)
	lint.Relativize(dir, findings)

	switch *format {
	case "json":
		out := make([]jsonFinding, 0, len(findings))
		for _, d := range findings {
			out = append(out, jsonFinding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Analyzer: "bsub/" + d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, "bsublint:", err)
			return 2
		}
	default:
		for _, d := range findings {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if n := len(findings); n > 0 {
		fmt.Fprintf(stderr, "bsublint: %d finding(s)", n)
		if suppressed > 0 {
			fmt.Fprintf(stderr, ", %d suppressed", suppressed)
		}
		fmt.Fprintln(stderr)
		return 1
	}
	return 0
}
