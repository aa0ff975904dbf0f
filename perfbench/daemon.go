package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wmcs/internal/instances"
	"wmcs/internal/obs"
)

// daemon is one wmcsd child process listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string
	done chan struct{} // closed once the process has exited
	err  error         // the exit status, valid after done
}

// live tracks the running daemons so a signal to the benchmark still
// stops them.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon boots wmcsd over the specs and waits until /healthz answers.
func startDaemon(bin, dir string, specs []instances.Spec) (*daemon, error) {
	manifest := filepath.Join(dir, "manifest.json")
	b, err := json.Marshal(specs)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(manifest, b, 0o644); err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := spawn(bin, manifest, filepath.Join(dir, "wmcsd.log"))
		if err != nil {
			return nil, err
		}
		if lastErr = d.waitReady(30 * time.Second); lastErr == nil {
			return d, nil
		}
		d.stop()
	}
	return nil, fmt.Errorf("wmcsd never became ready: %w", lastErr)
}

func spawn(bin, manifest, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-manifest", manifest)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting wmcsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.set, d)
		live.Unlock()
		close(d.done)
	}()
	return d, nil
}

var controlClient = &http.Client{Timeout: 30 * time.Second}

func (d *daemon) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("wmcsd exited during start-up: %v", d.err)
		default:
		}
		resp, err := controlClient.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("timed out waiting for /healthz")
}

// stop interrupts the daemon, waits for a clean drain, and kills it if
// the drain overruns. It returns once the process has exited.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Signal(os.Interrupt) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// cpuSeconds reads the daemon's user+system CPU time from /proc.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is field 3, so
	// utime (14) and stime (15) sit at offsets 11 and 12.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const clockTicks = 100 // USER_HZ on Linux
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB reads the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches and parses /metricsz.
func (d *daemon) scrape() (*obs.PromDoc, error) {
	resp, err := controlClient.Get(d.base + "/metricsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metricsz: status %d", resp.StatusCode)
	}
	return obs.ParseProm(resp.Body)
}
