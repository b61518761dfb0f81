package sweepd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/harness"
)

// Client is the sweep-service client: it submits a batch of points and
// decodes the NDJSON stream back into harness results — the same structs
// an in-process sweep produces, rendered by the same report code, so a
// served sweep's output is byte-identical to a local one.
type Client struct {
	// Base is the server's base URL (e.g. http://127.0.0.1:8077).
	Base string
	// Priority is attached to every submitted batch.
	Priority int
	// HTTP overrides the transport (nil = http.DefaultClient).
	HTTP *http.Client
}

// SweepSummary reports what serving a batch cost.
type SweepSummary struct {
	Rows     int
	MemoHits int
}

func (c *Client) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Sweep submits the specs and returns their results in request order. Any
// row-level failure (a job the simulator rejected, an unserved shard)
// fails the whole sweep with the first failed job's error, mirroring the
// in-process driver's first-error exit.
func (c *Client) Sweep(specs []JobSpec) ([]*harness.AppResult, SweepSummary, error) {
	var sum SweepSummary
	rows, err := post(c.httpc(), c.Base, SweepRequest{Jobs: specs, Priority: c.Priority})
	if err != nil {
		return nil, sum, fmt.Errorf("server: %w", err)
	}
	results := make([]*harness.AppResult, len(rows))
	for i, row := range rows {
		sum.Rows++
		if row.Memo {
			sum.MemoHits++
		}
		if row.Error != "" {
			return nil, sum, fmt.Errorf("job %d: %s", row.Index, row.Error)
		}
		results[i] = new(harness.AppResult)
		if err := json.Unmarshal(row.Result, results[i]); err != nil {
			return nil, sum, fmt.Errorf("job %d: decoding result: %w", row.Index, err)
		}
	}
	return results, sum, nil
}

// post sends req to the sweep endpoint at base and reads the NDJSON
// response: exactly one row per job, in request order.
func post(hc *http.Client, base string, req SweepRequest) ([]SweepRow, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg.Bytes()))
	}
	dec := json.NewDecoder(resp.Body)
	rows := make([]SweepRow, 0, len(req.Jobs))
	for dec.More() {
		var row SweepRow
		if err := dec.Decode(&row); err != nil {
			return nil, fmt.Errorf("decoding response: %w", err)
		}
		if row.Index != len(rows) {
			return nil, fmt.Errorf("row %d arrived out of order (expected %d)", row.Index, len(rows))
		}
		rows = append(rows, row)
	}
	if len(rows) != len(req.Jobs) {
		return nil, fmt.Errorf("returned %d rows for %d jobs", len(rows), len(req.Jobs))
	}
	return rows, nil
}

// Stats fetches the server's /v1/stats document.
func (c *Client) Stats() (ServerStats, error) {
	var st ServerStats
	resp, err := c.httpc().Get(c.Base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("server: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}
