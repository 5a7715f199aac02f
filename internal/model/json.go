package model

import (
	"encoding/json"
	"io"

	"gstm/internal/trace"
)

// jsonModel is the human-readable export schema used by
// `gstm model -inspect -json`: states render in the paper's notation.
type jsonModel struct {
	Threads int         `json:"threads"`
	States  []jsonState `json:"states"`
}

type jsonState struct {
	State  string     `json:"state"`
	Visits int64      `json:"visits"`
	Edges  []jsonEdge `json:"edges,omitempty"`
}

type jsonEdge struct {
	To   string  `json:"to"`
	Freq int64   `json:"freq"`
	Prob float64 `json:"prob"`
}

// ExportJSON writes the model as indented JSON with states in the paper's
// {<a6>, <b7>} notation, for inspection and external tooling.
func (m *TSA) ExportJSON(w io.Writer) error {
	out := jsonModel{Threads: m.Threads}
	for _, k := range m.Keys() {
		st, err := trace.ParseKey(k)
		if err != nil {
			return err
		}
		js := jsonState{State: st.String(), Visits: m.Node(k).Total}
		for _, e := range m.Edges(k) {
			to, err := trace.ParseKey(e.To)
			if err != nil {
				return err
			}
			js.Edges = append(js.Edges, jsonEdge{To: to.String(), Freq: e.Freq, Prob: e.Prob})
		}
		out.States = append(out.States, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
