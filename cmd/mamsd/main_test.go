package main

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mams/internal/mams"
	"mams/internal/sim"
)

// TestMDSConfig: the three processes of one deployment, each reading its own
// JSON config, derive the same layout (the real-hardware defaults with the
// configured failure detector); rejoin boots a junior; an mds named in no
// group is an error; so is an unknown or misspelt config key.
func TestMDSConfig(t *testing.T) {
	raw := func(i int, extra string) string {
		return fmt.Sprintf(`{
			"listen": "127.0.0.1:0",
			"peers": {"coord0": "127.0.0.1:7100", "coord1": "127.0.0.1:7101", "coord2": "127.0.0.1:7102",
			          "g0-mds0": "127.0.0.1:7100", "g0-mds1": "127.0.0.1:7101", "g0-mds2": "127.0.0.1:7102"},
			"coord_ensemble": ["coord0", "coord1", "coord2"],
			"groups": [["g0-mds0", "g0-mds1", "g0-mds2"]],
			"coord_heartbeat_ms": 300, "coord_session_timeout_ms": 1200,
			"coord": "coord%d", "mds": "g0-mds%d"%s
		}`, i, i, extra)
	}
	parse := func(i int, extra string) nodeConfig {
		t.Helper()
		cfg, err := parseConfig([]byte(raw(i, extra)))
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	var first mams.Layout
	for i := 0; i < 3; i++ {
		mc, err := mdsConfig(parse(i, ""))
		if err != nil {
			t.Fatal(err)
		}
		if g, m := mc.Locate(mc.ID); g != 0 || m != i || mc.Junior {
			t.Fatalf("process %d: group %d member %d junior %v", i, g, m, mc.Junior)
		}
		if i == 0 {
			first = mc.Layout
			continue
		}
		if !reflect.DeepEqual(mc.Layout, first) {
			t.Fatalf("process %d derived a different layout:\n%+v\nvs\n%+v", i, mc.Layout, first)
		}
	}
	if first.CoordHeartbeat != 300*sim.Millisecond || first.CoordSessionTimeout != 1200*sim.Millisecond {
		t.Fatalf("failure detector %v / %v, want 300ms / 1.2s", first.CoordHeartbeat, first.CoordSessionTimeout)
	}
	if first.Params.CostModel != (mams.CostModel{}) {
		t.Fatalf("wire layout charges a cost model: %+v", first.Params.CostModel)
	}

	if mc, err := mdsConfig(parse(1, `, "rejoin": true`)); err != nil || !mc.Junior {
		t.Fatalf("rejoin: junior %v, err %v", mc.Junior, err)
	}
	cfg := parse(2, "")
	cfg.MDS = "g0-mds7"
	if _, err := mdsConfig(cfg); err == nil || !strings.Contains(err.Error(), "not in any group") {
		t.Fatalf("unknown mds: err %v", err)
	}
	if _, err := parseConfig([]byte(raw(0, `, "coord_session_timout_ms": 300`))); err == nil ||
		!strings.Contains(err.Error(), "coord_session_timout_ms") {
		t.Fatalf("misspelt key: err %v", err)
	}
}
