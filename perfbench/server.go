package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// swserve is one running server process under test.
type swserve struct {
	cmd        *exec.Cmd
	base       string // http://host:port
	historyDir string
	client     *http.Client
	done       chan struct{}
	waitErr    error
	tail       []string // last stderr lines, for error reports
}

// startupTimeout bounds how long swserve may take to listen (surrogate
// builds run before the listener opens).
const startupTimeout = 150 * time.Second

// startSwserve starts bin with the result store and history catalog in
// fresh directories under dir, and waits until it listens.
func startSwserve(ctx context.Context, bin, dir string, extra ...string) (*swserve, error) {
	if bin == "" {
		return nil, fmt.Errorf("no swserve binary (-swserve)")
	}
	s := &swserve{historyDir: filepath.Join(dir, "history"), done: make(chan struct{})}
	args := append([]string{"-addr", "127.0.0.1:0", "-store", filepath.Join(dir, "store"),
		"-history", s.historyDir}, extra...)
	s.cmd = exec.Command(bin, args...)
	// Should this process die without stopping the server, the kernel
	// stops it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start swserve: %w", err)
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if len(s.tail) == 8 {
				s.tail = s.tail[1:]
			}
			s.tail = append(s.tail, line)
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrc <- strings.Fields(line[i+len("listening on "):])[0]:
				default:
				}
			}
		}
		s.waitErr = s.cmd.Wait()
		close(s.done)
	}()
	timer := time.NewTimer(startupTimeout)
	defer timer.Stop()
	select {
	case addr := <-addrc:
		s.base = "http://" + addr
	case <-s.done:
		return nil, fmt.Errorf("swserve exited before listening: %v: %s", s.waitErr, strings.Join(s.tail, " | "))
	case <-timer.C:
		s.stop()
		return nil, fmt.Errorf("swserve did not listen within %v", startupTimeout)
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   2 * time.Minute,
	}
	return s, nil
}

// stop terminates the server (SIGTERM, then SIGKILL after a grace
// period) and waits until the process has exited.
func (s *swserve) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
}

// post sends one request and reads the whole reply.
func (s *swserve) post(path string, body []byte) (int, []byte, error) {
	resp, err := s.client.Post(s.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// get fetches path and returns the status and body.
func (s *swserve) get(path string) (int, []byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the server's /metrics.
func (s *swserve) scrape() (promSample, error) {
	code, body, err := s.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", code)
	}
	return parsePromText(bytes.NewReader(body))
}

// surrogateLedger is the surrogate section of swserve's deep health.
type surrogateLedger struct {
	Surrogate struct {
		Models []struct {
			Gate         string  `json:"gate"`
			State        string  `json:"state"`
			BuildSeconds float64 `json:"build_seconds"`
		} `json:"models"`
	} `json:"surrogate"`
}

// deepHealth reads GET /v1/healthz?deep=1. A rejected surrogate makes
// the server answer 503 with the same body; that is a verdict, not a
// failure, so the status is not checked.
func (s *swserve) deepHealth() (surrogateLedger, error) {
	var h surrogateLedger
	_, body, err := s.get("/v1/healthz?deep=1")
	if err != nil {
		return h, err
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("deep health: %w", err)
	}
	return h, nil
}

// catalogBytes is the size of the server's history catalog file.
func (s *swserve) catalogBytes() float64 {
	fi, err := os.Stat(filepath.Join(s.historyDir, "catalog.jsonl"))
	if err != nil {
		return 0
	}
	return float64(fi.Size())
}

// peakRSSMB is the server's VmHWM in MiB.
func (s *swserve) peakRSSMB() (float64, error) { return vmHWM(s.cmd.Process.Pid) }

// vmHWM reads a process's peak resident set size (VmHWM) in MiB; pid 0
// means this process.
func vmHWM(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}
