package arch

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestConfigJSONRoundTrip(t *testing.T) {
	c := DefaultConfig()
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalJSONConfig(data)
	if err != nil {
		t.Fatal(err)
	}
	if back != c {
		t.Errorf("round trip changed config:\n%+v\n%+v", c, back)
	}
}

func TestConfigJSONPartialInheritsDefaults(t *testing.T) {
	c, err := UnmarshalJSONConfig([]byte(`{"TilesX": 16, "TilesY": 16, "JTAGChains": 16}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.TilesX != 16 || c.CoresPerTile != 14 || c.FreqHz != 300e6 {
		t.Errorf("partial load = %+v", c)
	}
}

func TestConfigJSONRejectsInvalid(t *testing.T) {
	if _, err := UnmarshalJSONConfig([]byte(`{"TilesX": 0}`)); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := UnmarshalJSONConfig([]byte(`{"NoSuchKnob": 1}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := UnmarshalJSONConfig([]byte(`{broken`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

func TestReadConfig(t *testing.T) {
	c, err := ReadConfig(strings.NewReader(`{"FreqHz": 250e6}`))
	if err != nil {
		t.Fatal(err)
	}
	if c.FreqHz != 250e6 {
		t.Errorf("freq = %v", c.FreqHz)
	}
}
