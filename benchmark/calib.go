package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"time"
)

// The box this benchmark was sized on runs the same code a third slower for
// minutes at a time (README, Calibration). A reference workload timed
// between jobs says how fast the machine was while a round ran, and the
// round's clock metrics are reported at reference speed: measured times
// multiplied, measured rates divided, by calRef over the round's median
// calibration sample.
//
// The reference workload shares no code with psaflow and is half of each
// kind of work psaflow does: computing (an arithmetic loop) and allocating
// (build a document of small records, encode it as JSON, decode it, sort
// it, under its own collector). The machine's slow state slows the second
// kind twice as much as the first, and psaflow's workloads in between. It
// runs in a process of its own, so that neither a change to psaflow nor the
// size of its heap moves the calibration, and the calibration's garbage
// does not move psaflow's collector.

const (
	// calRef is what one sample takes on the reference machine: the sizing
	// box in its fast state.
	calRef = 4 * time.Millisecond
	// calEvery is how much measured time passes between two samples: 20 to
	// 40 samples per round, under 5% of a run.
	calEvery = 100 * time.Millisecond
)

// calWork is one sample's worth of the reference workload.
func calWork() {
	x := uint64(88172645463325252)
	for i := 0; i < 1_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}

	type rec struct {
		ID    int       `json:"id"`
		Name  string    `json:"name"`
		Vals  []float64 `json:"vals"`
		Child *rec      `json:"child,omitempty"`
	}
	recs := make([]*rec, 400) // filled from x, so the loop above has to run
	for i := range recs {
		x = x*6364136223846793005 + 1442695040888963407
		r := &rec{ID: int(x >> 40), Name: "record", Vals: make([]float64, 8), Child: &rec{ID: i}}
		for k := range r.Vals {
			x = x*6364136223846793005 + 1442695040888963407
			r.Vals[k] = float64(x>>11) / (1 << 53)
		}
		recs[i] = r
	}
	data, err := json.Marshal(recs)
	if err != nil {
		panic(err) // the document is fixed: only a bug gets here
	}
	var back []*rec
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	sort.Slice(back, func(a, b int) bool { return back[a].ID < back[b].ID })
}

// serveCalibration is the child's side: one sample per byte read, its
// duration written back as eight bytes of nanoseconds, until the input ends.
func serveCalibration(in io.Reader, out io.Writer) error {
	var req [1]byte
	var reply [8]byte
	for {
		if _, err := io.ReadFull(in, req[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		t0 := time.Now()
		calWork()
		binary.LittleEndian.PutUint64(reply[:], uint64(time.Since(t0)))
		if _, err := out.Write(reply[:]); err != nil {
			return err
		}
	}
}

// calibrator is the parent's side of the reference workload's process.
type calibrator struct {
	cmd   *exec.Cmd
	in    io.WriteCloser
	out   io.Reader
	reply [8]byte
}

func startCalibrator() (*calibrator, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &calibrator{cmd: exec.Command(self, "-calibration-server")}
	c.cmd.Stderr = os.Stderr
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	if c.out, err = c.cmd.StdoutPipe(); err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start the calibration process: %w", err)
	}
	// The first samples pay for the child's start.
	for i := 0; i < 3; i++ {
		if _, _, err := c.sample(); err != nil {
			c.close()
			return nil, err
		}
	}
	return c, nil
}

// sample asks for one sample and returns what the work took in the child
// and what the exchange took here, which is what the round has to give back.
func (c *calibrator) sample() (work, spent time.Duration, err error) {
	t0 := time.Now()
	if _, err := c.in.Write(c.reply[:1]); err != nil {
		return 0, 0, fmt.Errorf("calibration process: %w", err)
	}
	if _, err := io.ReadFull(c.out, c.reply[:]); err != nil {
		return 0, 0, fmt.Errorf("calibration process: %w", err)
	}
	return time.Duration(binary.LittleEndian.Uint64(c.reply[:])), time.Since(t0), nil
}

// close ends the child and waits for it.
func (c *calibrator) close() error {
	c.in.Close()
	return c.cmd.Wait()
}
