"""Every input is read one way: the line files through util.read_lines,
the binary headers through util.read_header."""

import pytest

from vidcap.cli import read_config_file
from vidcap.corpus import parse_descriptions
from vidcap.features import MAGIC, load_manifest, read_feature_file
from vidcap.model import CHECKPOINT_MAGIC, load_checkpoint
from vidcap.util import InputError

# four well-formed lines of each line file; "v3" (no caption, no tab,
# no "=") is malformed in all three
LINES = {
    "descriptions": ["v1 A dog runs.", "v2 a cat  naps", "v3 a man waves", "v4 two birds sing"],
    "manifest": ["v1\tv1.vfm", "v2\tv2.vfm", "v3\tv3.vfm", "v4\tv4.vfm"],
    "config": ["vocab = 12", "seed=3", "batch-size = 4", "lr = 0.5"],
}
PARSE = {"descriptions": parse_descriptions, "manifest": load_manifest,
         "config": read_config_file}


def decorated(lines):
    """The four lines as one body with a byte-order mark, CRLF line ends,
    blank and whitespace-only lines, a comment and an indented one, and
    whitespace around the lines; lines[2] is line 7."""
    a, b, c, d = lines
    body = ["# comment", "", f"  {a} \t", " \t ", "    # indented comment", f"{b}  ", c, "",
            f"\t{d}"]
    return b"\xef\xbb\xbf" + "\r\n".join(body).encode("utf-8") + b"\r\n"


@pytest.mark.parametrize("name", ["descriptions", "manifest", "config"])
def test_line_files_skip_the_same_lines(tmp_path, name):
    for vid in ("v1", "v2", "v3", "v4"):
        (tmp_path / f"{vid}.vfm").write_bytes(b"")
    parse, lines = PARSE[name], LINES[name]
    plain, path = tmp_path / "plain.txt", tmp_path / "decorated.txt"
    plain.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    path.write_bytes(decorated(lines))
    assert parse(str(path)) == parse(str(plain))
    path.write_bytes(decorated(lines[:2] + ["v3"] + lines[3:]))
    if name == "descriptions":
        raw = parse(str(path))
        assert raw.pairs == [p for p in parse(str(plain)).pairs if p[0] != "v3"]
        assert raw.skipped == 1
    else:
        with pytest.raises(InputError) as err:
            parse(str(path))
        expected = {"manifest": "'<video_id>\\t<path>'", "config": "'key = value'"}[name]
        assert str(err.value) == f"{path}:7: expected {expected}"


@pytest.mark.parametrize("suffix, magic, read", [(".vfm", MAGIC, read_feature_file),
                                                 (".sq2s", CHECKPOINT_MAGIC, load_checkpoint)])
def test_binary_headers_give_the_same_errors(tmp_path, suffix, magic, read):
    path = tmp_path / f"file{suffix}"
    path.write_bytes(magic[:3])
    with pytest.raises(InputError) as err:
        read(str(path))
    assert str(err.value) == f"{path}: truncated header (3 bytes)"
    path.write_bytes(b"XXXX" + bytes(60))
    with pytest.raises(InputError) as err:
        read(str(path))
    assert str(err.value) == f"{path}: bad magic b'XXXX', expected {magic!r}"
