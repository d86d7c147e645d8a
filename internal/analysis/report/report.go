// Package report renders dvclint findings for humans and machines.
//
// The driver (cmd/dvclint) converts analysis.Diagnostics into Findings
// with module-relative paths, sorts them into the canonical order, and
// writes one of two formats:
//
//	text   file:line:col: [analyzer] message        (for terminals)
//	sarif  SARIF 2.1.0                              (for CI artifacts)
//
// Both are deterministic: same findings, same bytes. The canonical
// order is (file, line, analyzer, column, message), so output diffs
// cleanly across runs and machines.
package report

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Finding is one diagnostic with its position resolved to a
// module-relative path.
type Finding struct {
	File     string
	Line     int
	Col      int
	Analyzer string
	Message  string
}

// Sort orders findings canonically: by file, then line, then analyzer,
// then column, then message. Every output format relies on this order.
func Sort(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
}

// WriteText writes the terminal format, one finding per line.
func WriteText(w io.Writer, fs []Finding) error {
	bw := bufio.NewWriter(w)
	for _, f := range fs {
		fmt.Fprintf(bw, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	return bw.Flush()
}

// sarif* model the minimal SARIF 2.1.0 subset SARIF viewers need: one
// run, one driver, rules with help text, results with physical
// locations.
type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string        `json:"id"`
	ShortDescription sarifMessage  `json:"shortDescription"`
	Help             *sarifMessage `json:"help,omitempty"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI       string `json:"uri"`
	URIBaseID string `json:"uriBaseId,omitempty"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// RuleDoc describes one analyzer for the SARIF rules table.
type RuleDoc struct {
	Name string
	Doc  string
}

// WriteSARIF writes a SARIF 2.1.0 log. rules lists every analyzer that
// ran (not just those with findings), so CI shows the full suite; URIs
// are the module-relative paths with SRCROOT as the base id.
func WriteSARIF(w io.Writer, fs []Finding, rules []RuleDoc) error {
	sr := make([]sarifRule, 0, len(rules))
	for _, r := range rules {
		rule := sarifRule{ID: r.Name, ShortDescription: sarifMessage{Text: r.Name}}
		if r.Doc != "" {
			rule.Help = &sarifMessage{Text: r.Doc}
		}
		sr = append(sr, rule)
	}
	sort.Slice(sr, func(i, j int) bool { return sr[i].ID < sr[j].ID })
	results := make([]sarifResult, 0, len(fs))
	for _, f := range fs {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: f.File, URIBaseID: "SRCROOT"},
					Region:           sarifRegion{StartLine: f.Line, StartColumn: f.Col},
				},
			}},
		})
	}
	log := sarifLog{
		Version: "2.1.0",
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "dvclint", Rules: sr}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
