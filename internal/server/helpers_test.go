package server

import (
	"flag"
	"testing"
	"time"

	"sitm/internal/core"
)

// shardFlag lets CI sweep the stress tests across shard counts, as in
// internal/store:
//
//	go test -race -run TestRaceStress -shards 8 ./internal/server
var shardFlag = flag.Int("shards", 0, "store shard count for stress tests (0 = default)")

var serverTestDay = time.Date(2019, 5, 1, 9, 0, 0, 0, time.UTC)

// mkServerTraj builds a minimal trajectory visiting cells in order.
func mkServerTraj(t *testing.T, mo string, cells ...string) core.Trajectory {
	t.Helper()
	var tr core.Trace
	at := serverTestDay
	for _, c := range cells {
		tr = append(tr, core.PresenceInterval{Cell: c, Start: at, End: at.Add(time.Minute)})
		at = at.Add(2 * time.Minute)
	}
	traj, err := core.NewTrajectory(mo, tr, core.NewAnnotations("k", "v"))
	if err != nil {
		t.Fatal(err)
	}
	return traj
}
