"""Tests for .mcfo object files and the command-line tools."""

import pytest

from repro.build import compile_object
from repro.module import objectfile
from repro.module.objectfile import ObjectFileError

SOURCE = """
    long triple(long x) { return 3 * x; }
    long (*slot)(long) = triple;
    int main(void) { print_int(slot(14)); return 0; }
"""


@pytest.fixture()
def raw_module():
    return compile_object(SOURCE, name="objtest")


class TestObjectFiles:
    def test_roundtrip_in_memory(self, raw_module):
        blob = objectfile.dumps(raw_module)
        loaded = objectfile.loads(blob)
        assert loaded.name == raw_module.name
        assert loaded.arch == raw_module.arch
        assert set(loaded.functions) == set(raw_module.functions)
        assert loaded.imports == raw_module.imports
        assert loaded.taken_names == raw_module.taken_names

    def test_roundtrip_on_disk(self, raw_module, tmp_path):
        path = objectfile.save(raw_module, tmp_path / "objtest.mcfo")
        loaded = objectfile.load(path)
        assert loaded.name == "objtest"

    def test_loaded_object_links_and_runs(self, raw_module, tmp_path):
        """Instrument-once-reuse-anywhere: a module loaded from disk is
        linkable like a freshly compiled one."""
        from repro.runtime.runtime import Runtime
        from repro.workloads.libc import LIBC_SOURCE
        from tests.conftest import link_objects
        path = objectfile.save(raw_module, tmp_path / "m.mcfo")
        loaded = objectfile.load(path)
        libc = compile_object(LIBC_SOURCE, name="libc")
        program = link_objects([loaded, libc], mcfi=True)
        result = Runtime(program, verify=True).run()
        assert result.ok and result.output == b"42"

    def test_bad_magic_rejected(self):
        with pytest.raises(ObjectFileError, match="magic"):
            objectfile.loads(b"NOTANOBJ" + b"\x00" * 64)

    def test_truncated_rejected(self):
        with pytest.raises(ObjectFileError, match="truncated"):
            objectfile.loads(b"MC")

    def test_corruption_detected(self, raw_module):
        blob = bytearray(objectfile.dumps(raw_module))
        blob[-1] ^= 0xFF
        with pytest.raises(ObjectFileError, match="corrupted"):
            objectfile.loads(bytes(blob))

    def test_wrong_payload_type_rejected(self):
        import hashlib
        import pickle
        payload = pickle.dumps({"not": "a module"})
        header = bytes((objectfile.FORMAT_VERSION, 0x40))
        blob = (objectfile.MAGIC + header
                + hashlib.sha256(header + payload).digest() + payload)
        with pytest.raises(ObjectFileError, match="module"):
            objectfile.loads(blob)

    def test_old_format_version_rejected(self, raw_module):
        """A v1 .mcfo (no arch tag) must never be silently loaded."""
        blob = bytearray(objectfile.dumps(raw_module))
        blob[len(objectfile.MAGIC)] = 1  # pretend format version 1
        with pytest.raises(ObjectFileError, match="format version"):
            objectfile.loads(bytes(blob))

    def test_cross_arch_load_rejected(self, raw_module):
        blob = objectfile.dumps(raw_module)  # compiled for x64
        with pytest.raises(ObjectFileError, match="arch mismatch"):
            objectfile.loads(blob, expect_arch="x32")

    def test_matching_arch_accepted(self, raw_module):
        loaded = objectfile.loads(objectfile.dumps(raw_module),
                                  expect_arch="x64")
        assert loaded.arch == "x64"

    def test_header_payload_arch_disagreement_rejected(self, raw_module):
        """A header claiming x32 over an x64 payload is tampering."""
        import hashlib
        import pickle
        payload = pickle.dumps(raw_module,
                               protocol=pickle.HIGHEST_PROTOCOL)
        header = bytes((objectfile.FORMAT_VERSION, 0x20))  # x32 tag
        blob = (objectfile.MAGIC + header
                + hashlib.sha256(header + payload).digest() + payload)
        with pytest.raises(ObjectFileError, match="arch mismatch"):
            objectfile.loads(blob)

    def test_describe(self, raw_module):
        text = objectfile.describe(raw_module)
        assert "objtest" in text and "triple" in text


class TestCliTools:
    @pytest.fixture()
    def source_file(self, tmp_path):
        path = tmp_path / "prog.c"
        path.write_text(SOURCE)
        return path

    def test_cc_compile_only(self, source_file, tmp_path, capsys):
        from repro.tools.cc import main
        output = tmp_path / "prog.mcfo"
        assert main(["-c", str(source_file), "-o", str(output)]) == 0
        assert output.exists()
        assert "wrote" in capsys.readouterr().out

    def test_cc_link_and_run(self, source_file, capsys):
        from repro.tools.cc import main
        code = main([str(source_file), "--run", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "42" in out

    def test_cc_runs_object_files(self, source_file, tmp_path, capsys):
        from repro.tools.cc import main
        obj = tmp_path / "prog.mcfo"
        assert main(["-c", str(source_file), "-o", str(obj)]) == 0
        capsys.readouterr()
        assert main([str(obj), "--run"]) == 0
        assert "42" in capsys.readouterr().out

    def test_cc_native_links_object_file(self, source_file, tmp_path,
                                         capsys):
        from repro.tools.cc import main
        obj = tmp_path / "prog.mcfo"
        assert main(["-c", str(source_file), "-o", str(obj)]) == 0
        capsys.readouterr()
        assert main([str(obj), "--native", "--run"]) == 0
        out = capsys.readouterr().out
        assert "0 branch sites" in out and "42" in out

    def test_cc_reports_cfi_violation_exit_code(self, tmp_path, capsys):
        from repro.tools.cc import main
        bad = tmp_path / "bad.c"
        bad.write_text("""
            void wrong(int a, int b) { }
            int main(void) {
                void (*f)(void) = (void (*)(void))wrong;
                f();
                return 0;
            }
        """)
        assert main([str(bad), "--run"]) == 40
        assert "CFI violation" in capsys.readouterr().err

    def test_cc_compile_only_requires_one_input(self, source_file,
                                                tmp_path, capsys):
        from repro.tools.cc import main
        other = tmp_path / "b.c"
        other.write_text("int helper(void) { return 1; }")
        assert main(["-c", str(source_file), str(other)]) == 2

    def test_objdump(self, source_file, capsys):
        from repro.tools.objdump import main
        assert main([str(source_file), "--max-lines", "20"]) == 0
        out = capsys.readouterr().out
        assert "triple" in out and "address-taken" in out
        assert "indirect-branch sites" in out

    def test_objdump_native(self, source_file, capsys):
        from repro.tools.objdump import main
        assert main([str(source_file), "--native", "--aux-only"]) == 0
        assert "native" in capsys.readouterr().out

    def test_analyze_clean_source(self, tmp_path, capsys):
        from repro.tools.analyze import main
        clean = tmp_path / "clean.c"
        clean.write_text("int main(void) { return 0; }")
        assert main([str(clean)]) == 0
        assert "VBE): 0" in capsys.readouterr().out.replace("(", "(")

    def test_analyze_reports_violations(self, tmp_path, capsys):
        from repro.tools.analyze import main
        dirty = tmp_path / "dirty.c"
        dirty.write_text("""
            void g(void) { }
            void f(void) { void *p = (void *)g; }
            int main(void) { f(); return 0; }
        """)
        assert main([str(dirty), "--verbose"]) == 3
        out = capsys.readouterr().out
        assert "K2" in out and "classified casts" in out

    def test_analyze_missing_file(self, tmp_path, capsys):
        from repro.tools.analyze import main
        with pytest.raises(SystemExit):
            main([])  # argparse: missing required input


class TestGadgetsCli:
    def test_native_scan(self, tmp_path, capsys):
        from repro.tools.gadgets import main
        source = tmp_path / "g.c"
        source.write_text("""
            long f(long x) { return x * 3; }
            long (*p)(long) = f;
            int main(void) { return (int)p(2); }
        """)
        assert main([str(source), "--show", "2"]) == 0
        out = capsys.readouterr().out
        assert "unique gadgets" in out and "ret" in out

    def test_mcfi_reachability(self, tmp_path, capsys):
        from repro.tools.gadgets import main
        source = tmp_path / "g.c"
        source.write_text("int main(void) { return 0; }")
        assert main([str(source), "--mcfi", "--show", "0"]) == 0
        out = capsys.readouterr().out
        assert "eliminated" in out and "hardened" in out
