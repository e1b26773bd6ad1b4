package xlate_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocumentedCommands checks, without running them, the commands in
// the sh blocks of README.md and EXPERIMENTS.md: every make target is
// in the Makefile, every `go run` package exists, every flag given to a
// cmd/ binary is declared in its sources or in internal/obsflags, and
// every localhost path curl fetches is registered by a Handle or
// HandleFunc in non-test code.
func TestDocumentedCommands(t *testing.T) {
	targets := makeTargets(t)
	routes := registeredRoutes(t)
	shared := declaredFlags(t, "internal/obsflags")
	flagsOf := map[string]map[string]bool{}
	var nMake, nRun, nCurl int

	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		for _, cmd := range shCommands(t, doc) {
			where := doc + ": " + strings.Join(cmd, " ")
			switch {
			case cmd[0] == "make":
				for _, tgt := range cmd[1:] {
					if strings.HasPrefix(tgt, "-") || strings.Contains(tgt, "=") {
						continue
					}
					nMake++
					if !targets[tgt] {
						t.Errorf("%s: no Makefile target %q", where, tgt)
					}
				}
			case cmd[0] == "curl":
				for _, w := range cmd[1:] {
					m := localPath.FindStringSubmatch(w)
					if m == nil {
						continue
					}
					nCurl++
					if !routed(routes, m[1]) {
						t.Errorf("%s: no handler registered for %s", where, m[1])
					}
				}
			default:
				dir, args := commandDir(cmd)
				if dir == "" {
					continue
				}
				nRun++
				if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
					t.Errorf("%s: no package %s", where, dir)
					continue
				}
				if flagsOf[dir] == nil {
					flagsOf[dir] = declaredFlags(t, dir)
				}
				for _, a := range args {
					name, isFlag := flagName(a)
					if isFlag && !flagsOf[dir][name] && !shared[name] && name != "h" && name != "help" {
						t.Errorf("%s: %s declares no flag -%s", where, dir, name)
					}
				}
			}
		}
	}
	if nMake == 0 || nRun == 0 || nCurl == 0 {
		t.Errorf("checked %d make targets, %d go run/binary commands, %d curl paths; want each > 0", nMake, nRun, nCurl)
	}
}

// localPath captures the path of a localhost URL, without its query.
var localPath = regexp.MustCompile(`localhost:\d+(/[^?\s]*)`)

// commandDir returns the package directory a command runs (`go run
// ./cmd/X` or a bare cmd/ binary name) and the arguments after it, or
// "" for any other command.
func commandDir(cmd []string) (string, []string) {
	if len(cmd) >= 3 && cmd[0] == "go" && cmd[1] == "run" && strings.HasPrefix(cmd[2], "./") {
		return filepath.Clean(cmd[2]), cmd[3:]
	}
	if fi, err := os.Stat(filepath.Join("cmd", cmd[0])); err == nil && fi.IsDir() {
		return filepath.Join("cmd", cmd[0]), cmd[1:]
	}
	return "", nil
}

// flagName returns the name of a -flag or -flag=value argument.
func flagName(arg string) (string, bool) {
	if len(arg) < 2 || arg[0] != '-' || arg == "--" {
		return "", false
	}
	name, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
	return name, true
}

// routed reports whether a request path matches a registered pattern:
// exactly, or under a subtree pattern other than the catch-all "/".
func routed(routes map[string]bool, path string) bool {
	for p := range routes {
		if p == path || (len(p) > 1 && strings.HasSuffix(p, "/") && strings.HasPrefix(path, p)) {
			return true
		}
	}
	return false
}

// shCommands splits a Markdown file's sh blocks into simple commands:
// continuation lines joined, comments dropped, words unquoted, and
// pipelines, lists and redirections cut at their operators.
func shCommands(t *testing.T, doc string) [][]string {
	t.Helper()
	b, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	var cmds [][]string
	for _, m := range shBlock.FindAllStringSubmatch(string(b), -1) {
		text := strings.ReplaceAll(m[1], "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			var cmd []string
			for _, w := range shWords(line) {
				if shOperator.MatchString(w) {
					if len(cmd) > 0 {
						cmds = append(cmds, cmd)
					}
					cmd = nil
					continue
				}
				cmd = append(cmd, w)
			}
			if len(cmd) > 0 {
				cmds = append(cmds, cmd)
			}
		}
	}
	return cmds
}

var (
	shBlock = regexp.MustCompile("(?s)```sh\n(.*?)```")
	// shOperator matches a control operator or a redirection word.
	shOperator = regexp.MustCompile(`^([|&;]+|\d*[<>].*)$`)
)

// shWords splits one shell line into words, honouring single and
// double quotes and stopping at an unquoted comment. An operator
// written without spaces around it stays inside its word, which the
// docs do not do.
func shWords(line string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case r == '#' && !inWord:
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}

// makeTargets lists the rule names the Makefile defines.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	b, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(b), -1) {
		for _, name := range strings.Fields(m[1]) {
			out[name] = true
		}
	}
	return out
}

var makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9_-][A-Za-z0-9_ -]*):([^=]|$)`)

// goFiles parses the non-test Go files under root (recursively when
// recurse is set), skipping testdata trees.
func goFiles(t *testing.T, root string, recurse bool) []*ast.File {
	t.Helper()
	var files []*ast.File
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (!recurse || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// stringArgs calls fn with the selector name and the string-literal
// arguments of every method or package-function call in files.
func stringArgs(files []*ast.File, fn func(sel string, lits []string)) {
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var lits []string
			for _, a := range call.Args {
				if bl, ok := a.(*ast.BasicLit); ok && bl.Kind == token.STRING {
					if s, err := strconv.Unquote(bl.Value); err == nil {
						lits = append(lits, s)
					}
				}
			}
			fn(sel.Sel.Name, lits)
			return true
		})
	}
}

// declaredFlags collects the names the flag package's declaration
// functions register in dir's non-test sources.
func declaredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	stringArgs(goFiles(t, dir, false), func(sel string, lits []string) {
		if flagDecl.MatchString(sel) && len(lits) > 0 {
			out[lits[0]] = true
		}
	})
	return out
}

var flagDecl = regexp.MustCompile(`^(Bool|Int|Int64|Uint|Uint64|Float64|String|Duration|Text|Func|BoolFunc)(Var)?$|^Var$`)

// registeredRoutes collects the patterns passed to Handle and
// HandleFunc anywhere in the module's non-test code.
func registeredRoutes(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	stringArgs(goFiles(t, ".", true), func(sel string, lits []string) {
		if (sel == "Handle" || sel == "HandleFunc") && len(lits) > 0 {
			out[lits[0]] = true
		}
	})
	return out
}
