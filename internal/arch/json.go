package arch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Config loading: design points are read from JSON so the CLI can
// evaluate custom systems (cmd/waferscale -config).

// UnmarshalJSONConfig parses and validates a configuration. Missing
// fields inherit the default prototype values, so a partial file like
// {"TilesX": 16, "TilesY": 16, "JTAGChains": 16} describes a smaller
// wafer without restating the chiplet details.
func UnmarshalJSONConfig(data []byte) (Config, error) {
	c := DefaultConfig()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("arch: bad config JSON: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, fmt.Errorf("arch: config invalid after load: %w", err)
	}
	return c, nil
}

// ReadConfig loads a configuration from a reader.
func ReadConfig(r io.Reader) (Config, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return Config{}, err
	}
	return UnmarshalJSONConfig(data)
}
