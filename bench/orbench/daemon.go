package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// repoRoot walks up from the working directory to the objectrunner
// module root, so the benchmark runs from the repository root (as
// BENCHMARK.json's command does) and from its own directory (go test).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module objectrunner\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no objectrunner module above the working directory")
		}
		dir = parent
	}
}

// buildDaemon compiles cmd/objectrunnerd from the checkout into dir.
func buildDaemon(root, dir string) (string, error) {
	bin := filepath.Join(dir, "objectrunnerd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/objectrunnerd")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build objectrunnerd: %w", err)
	}
	return bin, nil
}

// daemon is one objectrunnerd process on an ephemeral loopback port,
// started with default flags.
type daemon struct {
	cmd  *exec.Cmd
	base string
	// drained is closed once the process's stderr reaches EOF, which
	// happens when it exits; Wait may only run after that.
	drained chan struct{}
}

func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start objectrunnerd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, addr, ok := strings.Cut(sc.Text(), "listening on "); ok {
			d.base = "http://" + addr
			break
		}
	}
	go func() {
		defer close(d.drained)
		for sc.Scan() {
		}
	}()
	if d.base == "" {
		_ = cmd.Process.Kill()
		<-d.drained
		_ = cmd.Wait()
		return nil, fmt.Errorf("objectrunnerd exited before announcing its address")
	}
	return d, nil
}

// peakRSSMB reads the daemon's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// stop drains the daemon with SIGTERM, as an operator would, and kills
// it if the drain hangs. It returns once the process has exited.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.drained:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.drained
	}
	return d.cmd.Wait()
}

// client speaks to one daemon over a bounded pool of keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

// do sends one request and reads the whole response into buf.
func (c *client) do(method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// sourcePath is the DELETE path of a source key; keys hold spaces and
// parentheses, and their slashes stay path separators.
func sourcePath(key string) string {
	parts := strings.Split(key, "/")
	for i, p := range parts {
		parts[i] = url.PathEscape(p)
	}
	return "/v1/sources/" + strings.Join(parts, "/")
}
