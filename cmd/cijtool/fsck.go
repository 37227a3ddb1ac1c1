package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cij/internal/service"
	"cij/internal/storage"
)

// runFsck verifies a cijserver data directory offline: manifest,
// snapshot checksums, deep tree rebuild of every dataset, and WAL
// replayability. Exit status 1 means the directory would not recover
// cleanly.
func runFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "data directory to verify (as given to cijserver)")
	asJSON := fs.Bool("json", false, "emit the full report as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return fmt.Errorf("fsck: -data-dir is required")
	}
	rep := service.Fsck(storage.OSFS{}, *dataDir)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		printFsckReport(rep)
	}
	if !rep.OK() {
		return fmt.Errorf("fsck: %d problem(s) found", len(rep.Problems))
	}
	return nil
}

func printFsckReport(rep *service.FsckReport) {
	switch {
	case rep.Fresh:
		fmt.Println("fresh directory: no manifest, nothing to verify")
		return
	case rep.CleanShutdown:
		fmt.Println("clean shutdown marker present")
	default:
		fmt.Println("unclean shutdown: recovery will replay the WAL tail")
	}
	for _, d := range rep.Datasets {
		fmt.Printf("dataset %-16s v%-3d %6d points  %6d pages x %dB  (%s)\n",
			d.Name, d.Version, d.Points, d.Pages, d.PageSize, d.File)
	}
	fmt.Printf("WAL: %d record(s): %d replayable, %d stale", rep.WALRecords, rep.WALReplayable, rep.WALStale)
	if rep.WALCorrupt > 0 {
		fmt.Printf(", %d corrupt", rep.WALCorrupt)
	}
	if rep.WALTornTail {
		fmt.Printf(", torn tail")
	}
	fmt.Println()
	for _, o := range rep.Orphans {
		fmt.Printf("orphan snapshot (ignored by recovery): %s\n", o)
	}
	if rep.OK() {
		fmt.Println("ok")
		return
	}
	for _, p := range rep.Problems {
		fmt.Printf("PROBLEM: %s\n", p)
	}
}
