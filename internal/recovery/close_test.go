package recovery

import (
	"errors"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/tmf"
)

// A recovery that finds both mirrors of a log region unreadable must
// still close the region: a handle left open keeps the PMM's access
// window programmed and makes every later Delete of the region fail
// with ErrBusy.
func TestFromPMClosesRegionWhenReplicasUnreadable(t *testing.T) {
	res := RunScenario(ods.PMDurability, 5, 7)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	res.Reboot()
	s := res.Store
	s.Eng.Run() // let the restarted PMM load its region table
	devs := []*npmu.Device{s.NPMUPrimary}
	if s.NPMUMirror != s.NPMUPrimary {
		devs = append(devs, s.NPMUMirror)
	}
	for _, d := range devs {
		d.Fail() // off the fabric, translations intact
	}
	regions := res.logRegions()
	var recErr, delErr error
	s.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
		vol := pmclient.Attach(s.Cl, ods.PMVolumeName)
		_, _, recErr = FromPM(p, vol, regions, tmf.TCBRegionName, Options{})
		for _, d := range devs {
			d.Recover()
		}
		delErr = vol.Delete(p, regions[0])
	})
	s.Eng.Run()
	if !errors.Is(recErr, ErrNoLog) {
		t.Fatalf("recovery with both mirrors down: err = %v, want ErrNoLog", recErr)
	}
	if delErr != nil {
		t.Errorf("Delete of %s after the failed recovery: %v", regions[0], delErr)
	}
	s.Eng.Shutdown()
}
