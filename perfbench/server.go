package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running brainy-serve process.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	exited chan struct{} // closed once the stderr reader sees EOF
	tail   *bytes.Buffer // last stderr lines, for error reports

	stopOnce sync.Once
	stopErr  error
}

// launchServer starts brainy-serve with deployment flags only and returns
// once /healthz answers 200 with the whole registry loaded. The elapsed
// time from exec to that answer is the set-up time.
func launchServer(bin, models string, wantModels int) (*server, time.Duration, error) {
	start := time.Now()
	cmd := exec.Command(bin, "-models", models, "-addr", "127.0.0.1:0", "-log-requests=false")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM} // never outlive the benchmark
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting brainy-serve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), tail: new(bytes.Buffer)}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if !sent {
				if a := logField(line, "addr"); strings.Contains(line, "msg=listening") && a != "" {
					addrc <- a
					sent = true
				}
				s.tail.WriteString(line + "\n")
			}
		}
		if !sent {
			close(addrc)
		}
	}()
	var addr string
	select {
	case a, ok := <-addrc:
		if !ok {
			_ = cmd.Wait()
			return nil, 0, fmt.Errorf("brainy-serve exited before listening: %s", s.tail.String())
		}
		addr = a
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, 0, fmt.Errorf("brainy-serve did not listen within 30s")
	}
	s.base = "http://" + addr
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		resp, err := hc.Get(s.base + "/healthz")
		if err == nil {
			var h struct {
				Models int `json:"models"`
			}
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && derr == nil && h.Models == wantModels {
				hc.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	s.stop()
	return nil, 0, fmt.Errorf("brainy-serve /healthz never reported %d models", wantModels)
}

// logField extracts key=value from a slog text line.
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return v
		}
	}
	return ""
}

// stop terminates the server (SIGTERM, then SIGKILL after the grace
// period) and waits for it and its log reader to finish. Later calls
// return the first call's result.
func (s *server) stop() error {
	s.stopOnce.Do(func() {
		_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
		done := make(chan error, 1)
		go func() { <-s.exited; done <- s.cmd.Wait() }()
		select {
		case s.stopErr = <-done:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			s.stopErr = <-done
		}
	})
	return s.stopErr
}

// peakRSSMB reads the server's resident-set high-water mark from outside
// the process.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// cpuTime is the server's user plus system CPU time so far, read from
// outside the process. The kernel charges stolen ticks to steal, not to the
// process, so this is the work Brainy did, whatever the neighbours did.
func (s *server) cpuTime() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3,
	// utime and stime are fields 14 and 15, in clock ticks.
	rest := string(b[bytes.LastIndexByte(b, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", s.cmd.Process.Pid)
	}
	var ticks float64
	for _, v := range f[11:13] {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing /proc/%d/stat: %w", s.cmd.Process.Pid, err)
		}
		ticks += t
	}
	return time.Duration(ticks * float64(time.Second) / clockTicks), nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// get fetches one path and returns the body of a 200 answer.
func (s *server) get(path string) ([]byte, error) {
	resp, err := http.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// scrape is one parse of /metrics: every sample keyed by its full series
// name, labels included, exactly as exposed.
type scrape map[string]float64

func (s *server) scrape() (scrape, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	return parseExposition(b), nil
}

func parseExposition(b []byte) scrape {
	out := scrape{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		// Exemplars follow " # "; the value is the last field before them.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// delta returns after−before for a series, and whether the series is
// exposed at all. A series the server no longer exports is absent, which
// is different from zero.
func delta(before, after scrape, series string) (float64, bool) {
	a, ok := after[series]
	if !ok {
		return 0, false
	}
	return a - before[series], true
}

// sumDelta sums the deltas of every series of a labelled family whose
// labels satisfy keep. The family is present if it exposes any series,
// kept or not.
func sumDelta(before, after scrape, family string, keep func(series string) bool) (float64, bool) {
	var sum float64
	found := false
	for k, v := range after {
		if !strings.HasPrefix(k, family+"{") {
			continue
		}
		found = true
		if keep(k) {
			sum += v - before[k]
		}
	}
	return sum, found
}
