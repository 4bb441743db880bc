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
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// A child's rusage maxrss on Linux also counts the peak RSS of the process
// that spawned it: Go starts children with vfork semantics, and exec
// records the old address space's peak into the child's maxrss. The
// harness's own heap (trees, outputs, reference work) would then show up as
// the program's memory. So every timed child is spawned by a small helper,
// the harness binary re-run with --spawner, whose own peak stays a few MB.
// It runs one request at a time, sends the child's stdout and stderr to
// files, and replies with the wall time, exit code and maxrss.

// spawnReq is one request to the spawner.
type spawnReq struct {
	Dir, Bin       string
	Args           []string
	Stdout, Stderr string // files receiving the child's output
}

// spawnResp is the spawner's reply.
type spawnResp struct {
	WallNS   int64
	Exit     int
	MaxRSSKB int64
	Err      string
}

// runSpawner serves requests from stdin until it closes.
func runSpawner() error {
	dec := json.NewDecoder(os.Stdin)
	enc := json.NewEncoder(os.Stdout)
	for {
		var req spawnReq
		if err := dec.Decode(&req); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if err := enc.Encode(spawnOne(req)); err != nil {
			return err
		}
	}
}

func spawnOne(req spawnReq) spawnResp {
	out, err := os.Create(req.Stdout)
	if err != nil {
		return spawnResp{Err: err.Error()}
	}
	defer out.Close()
	errf, err := os.Create(req.Stderr)
	if err != nil {
		return spawnResp{Err: err.Error()}
	}
	defer errf.Close()
	cmd := exec.Command(req.Bin, req.Args...)
	cmd.Dir = req.Dir
	cmd.Stdout, cmd.Stderr = out, errf
	start := time.Now()
	err = cmd.Run()
	resp := spawnResp{WallNS: int64(time.Since(start))}
	if cmd.ProcessState == nil {
		resp.Err = fmt.Sprintf("%s: %v", req.Bin, err)
		return resp
	}
	resp.Exit = cmd.ProcessState.ExitCode()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		resp.MaxRSSKB = ru.Maxrss
	}
	return resp
}

// spawner is the harness's end of a running spawner.
type spawner struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *json.Decoder
	work string
}

// startSpawner starts the helper; call it before the harness grows.
func startSpawner(work string) (*spawner, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--spawner")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return &spawner{cmd: cmd, in: in, out: json.NewDecoder(out), work: work}, nil
}

// close ends the helper and waits for it.
func (s *spawner) close() {
	s.in.Close()
	s.cmd.Wait()
}

// procResult is one finished child process.
type procResult struct {
	Wall   time.Duration
	RSSMB  float64 // peak resident set (rusage maxrss)
	Exit   int
	Stdout []byte
	Stderr []byte
}

// run runs bin with args in dir through the spawner and waits for it. A
// failure to start is an error; a non-zero exit is reported through Exit.
func (s *spawner) run(dir, bin string, args ...string) (procResult, error) {
	req := spawnReq{Dir: dir, Bin: bin, Args: args,
		Stdout: filepath.Join(s.work, "child.out"), Stderr: filepath.Join(s.work, "child.err")}
	b, err := json.Marshal(req)
	if err != nil {
		return procResult{}, err
	}
	if _, err := s.in.Write(append(b, '\n')); err != nil {
		return procResult{}, fmt.Errorf("spawner: %w", err)
	}
	var resp spawnResp
	if err := s.out.Decode(&resp); err != nil {
		return procResult{}, fmt.Errorf("spawner: %w", err)
	}
	if resp.Err != "" {
		return procResult{}, fmt.Errorf("spawner: %s", resp.Err)
	}
	r := procResult{Wall: time.Duration(resp.WallNS), RSSMB: float64(resp.MaxRSSKB) / 1024, Exit: resp.Exit}
	if r.Stdout, err = os.ReadFile(req.Stdout); err != nil {
		return r, err
	}
	if r.Stderr, err = os.ReadFile(req.Stderr); err != nil {
		return r, err
	}
	return r, nil
}

// daemon is one running gocci-serve child and the single HTTP client that
// drives it over loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan struct{}
}

// lockedBuffer collects a child's stderr while the harness polls it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var announce = regexp.MustCompile(`on http://(\S+)`)

// startDaemon launches gocci-serve on an ephemeral loopback port and waits
// until it announces its address.
func startDaemon(dir, bin string, args ...string) (*daemon, error) {
	args = append([]string{"--addr", "127.0.0.1:0", "--watch", "0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	eb := &lockedBuffer{}
	cmd.Stderr = eb
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if m := announce.FindStringSubmatch(eb.String()); m != nil {
			d.base = "http://" + m[1]
			return d, nil
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("gocci-serve exited before announcing: %s", eb.String())
		case <-time.After(2 * time.Millisecond):
		}
	}
	d.stop()
	return nil, fmt.Errorf("gocci-serve did not announce within 30s")
}

// stop terminates the daemon, waits for it, and returns its peak RSS.
func (d *daemon) stop() float64 {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
	if d.cmd.ProcessState == nil {
		return 0
	}
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// rssMB reads the daemon's current resident set from /proc.
func (d *daemon) rssMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", d.cmd.Process.Pid)
}

// runLine is the subset of one sweep NDJSON line the harness checks.
type runLine struct {
	Name    string `json:"name"`
	Diff    string `json:"diff"`
	Error   string `json:"error"`
	Summary *struct {
		Files  int `json:"files"`
		Errors int `json:"errors"`
		Parsed int `json:"parsed"`
	} `json:"summary"`
}

// sweep is one parsed full-corpus run.
type sweep struct {
	Wall   time.Duration
	Diffs  map[string]string // by file name as the daemon reports it
	Files  int
	Parsed int
}

// sweep POSTs /v1/sessions/{id}/run and reads the stream to its summary.
func (d *daemon) sweep(session string) (sweep, error) {
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/sessions/"+session+"/run", "application/json", nil)
	if err != nil {
		return sweep{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return sweep{}, fmt.Errorf("run: HTTP %d: %s", resp.StatusCode, b)
	}
	sw := sweep{Diffs: map[string]string{}}
	dec := json.NewDecoder(bufio.NewReaderSize(resp.Body, 64<<10))
	for {
		var l runLine
		if err := dec.Decode(&l); err != nil {
			return sw, fmt.Errorf("run: stream ended without a summary: %w", err)
		}
		if l.Summary != nil {
			sw.Wall = time.Since(start)
			sw.Files, sw.Parsed = l.Summary.Files, l.Summary.Parsed
			if l.Summary.Errors > 0 {
				return sw, fmt.Errorf("run: %d file errors", l.Summary.Errors)
			}
			return sw, nil
		}
		if l.Error != "" {
			return sw, fmt.Errorf("run: %s: %s", l.Name, l.Error)
		}
		sw.Diffs[l.Name] = l.Diff
	}
}

// applyReq is the body of POST /v1/apply.
type applyReq struct {
	Session string  `json:"session,omitempty"`
	Patch   string  `json:"patch,omitempty"`
	Name    string  `json:"name,omitempty"`
	Source  *string `json:"source,omitempty"`
	File    string  `json:"file,omitempty"`
}

// applyResp is the subset of an /v1/apply reply the harness checks.
type applyResp struct {
	Diff string `json:"diff"`
}

// apply POSTs one /v1/apply request.
func (d *daemon) apply(req applyReq) (applyResp, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return applyResp{}, 0, err
	}
	start := time.Now()
	resp, err := d.client.Post(d.base+"/v1/apply", "application/json", bytes.NewReader(body))
	if err != nil {
		return applyResp{}, 0, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	wall := time.Since(start)
	if err != nil {
		return applyResp{}, wall, err
	}
	if resp.StatusCode != http.StatusOK {
		return applyResp{}, wall, fmt.Errorf("apply: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(b)))
	}
	var ar applyResp
	if err := json.Unmarshal(b, &ar); err != nil {
		return ar, wall, fmt.Errorf("apply: %w", err)
	}
	return ar, wall, nil
}

// get fetches one GET endpoint's body.
func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}
