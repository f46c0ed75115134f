package main

import (
	"bufio"
	"bytes"
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
	"syscall"
	"time"

	"compactsg/internal/obs"
)

// proc is one server process under test (sgserve or sgproxy).
type proc struct {
	name string
	addr string // host:port it listens on
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startProc launches bin from binDir on a fresh loopback port with
// -addr appended. Its output goes to a log file in the work directory,
// and TMPDIR points there too, so the server writes nothing outside it.
func startProc(o *options, bin string, args ...string) (*proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(o.workDir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(o.workDir, bin+"-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(o.binDir, bin), append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+tmp)
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	p := &proc{name: bin, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		close(p.done)
	}()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

func (p *proc) url(path string) string { return "http://" + p.addr + path }

// exited reports whether the process is gone.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// waitHealthy polls /healthz until it answers 200.
func (p *proc) waitHealthy(c *client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if p.exited() {
			return fmt.Errorf("%s exited during start-up: %s", p.name, p.tail())
		}
		if _, err := c.get(p.url("/healthz")); err == nil {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v: %s", p.name, timeout, p.tail())
}

// tail returns the end of the process log for error messages.
func (p *proc) tail() string {
	b, _ := os.ReadFile(p.log.Name())
	if len(b) > 600 {
		b = b[len(b)-600:]
	}
	return strings.TrimSpace(string(b))
}

// hwmMB reads the process's peak resident set (VmHWM) in MB.
func hwmMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop terminates the process (SIGTERM, then SIGKILL) and waits for it.
func (p *proc) stop() {
	if !p.exited() {
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
}

// stopAll stops every process this run started.
func stopAll() {
	procsMu.Lock()
	ps := procs
	procs = nil
	procsMu.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// scrape fetches /metrics and returns the samples by full series name
// (metric name plus its label set, as exposed).
func scrape(c *client, p *proc) (map[string]float64, error) {
	body, err := c.get(p.url("/metrics"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of metric name (all label sets) in m.
func sum(m map[string]float64, name string) float64 {
	t := 0.0
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// delta is sum(after) - sum(before) for one metric name.
func delta(before, after map[string]float64, name string) float64 {
	return sum(after, name) - sum(before, name)
}

// traces pulls /debug/traces.
func traces(c *client, p *proc) ([]*obs.Trace, error) {
	body, err := c.get(p.url("/debug/traces"))
	if err != nil {
		return nil, err
	}
	return obs.ParseTraces(body)
}

// stageMedians returns, per stage, the median duration in µs over the
// traces of handler that recorded the stage, and the median share of
// the client-observed latency the recorded stages cover (joined by
// X-Request-Id; 0 when no trace joins a client span).
func stageMedians(trs []*obs.Trace, handler string, spans []span) (map[string]float64, float64) {
	byStage := make(map[string][]float64)
	byID := make(map[string]*obs.Trace)
	for _, tr := range trs {
		if tr.Handler != handler || tr.Status != http.StatusOK {
			continue
		}
		byID[tr.ExtID] = tr
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			if s, ok := tr.StageS(st); ok {
				byStage[st.Name()] = append(byStage[st.Name()], s*1e6)
			}
		}
	}
	med := make(map[string]float64)
	for name, xs := range byStage {
		med[name] = median(xs)
	}
	var cover []float64
	for _, sp := range spans {
		tr, ok := byID[sp.id]
		if !ok || sp.id == "" {
			continue
		}
		covered := 0.0
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			s, _ := tr.StageS(st)
			covered += s
		}
		cover = append(cover, covered/sp.dur.Seconds())
	}
	return med, median(cover)
}

// postRaw is a single request outside any load loop (warm-up,
// readiness probes); it returns the reply body.
func postRaw(c *client, url, ctype string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := c.post(url, ctype, body, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
