package telemetry

import (
	"encoding/json"
	"io"
)

// AppendJSONLine marshals v and writes it as one newline-terminated JSON
// line: the append primitive of every JSONL artifact — trace files,
// tuning and measurement logs, the fleet checkpoint, the tuned-config
// store, and the glimpsed job journal. The durable logs among them open
// through tlog.OpenAppend, which repairs a tail torn by a kill before
// the next append.
func AppendJSONLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
