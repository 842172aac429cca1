#!/usr/bin/env python3
"""Write src/lambkit/data/ziggurat.json, numpy's normal ziggurat tables.

    python3 tools/ziggurat_table.py

lambkit.rng draws numpy's normals bit for bit, so it needs the very doubles
numpy's random_standard_normal reads: ki_double (256 uint64), wi_double and
fi_double (256 doubles each).  They are read, with the stdlib only, out of the
read-only data of the installed numpy's static library
numpy/random/lib/libnpyrandom.a: its ar members, each member's ELF64 section
headers, and the .symtab entries that name the three arrays.  Re-run it if
numpy changes its ziggurat: tests/test_waferstats.py compares the stdlib
stream with numpy's draw for draw.
"""

import importlib.util
import json
import os
import struct

TABLES = {"ki_double": "Q", "wi_double": "d", "fi_double": "d"}
N = 256
PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src", "lambkit", "data", "ziggurat.json")


def ar_members(blob: bytes):
    """The data of each member of a System V / GNU ar archive."""
    if not blob.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos = 8
    while pos + 60 <= len(blob):
        size = int(blob[pos + 48:pos + 58])
        if blob[pos + 58:pos + 60] != b"`\n":
            raise ValueError(f"bad ar member header at byte {pos}")
        yield blob[pos + 60:pos + 60 + size]
        pos += 60 + size + size % 2


def elf_symbols(obj: bytes) -> dict:
    """{name: bytes} of every sized symbol that lies in a PROGBITS section
    of a little-endian ELF64 relocatable object."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        return {}
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (sh_type, sh_offset, sh_size, sh_link) of each section
    sections = [struct.unpack_from("<4xI16xQQI", obj, shoff + i * shentsize)
                for i in range(shnum)]
    symbols = {}
    for sh_type, offset, size, link in sections:
        if sh_type != 2:  # SHT_SYMTAB
            continue
        strtab = sections[link][1]
        for at in range(offset, offset + size, 24):
            st_name, shndx, value, st_size = struct.unpack_from("<I2xHQQ", obj, at)
            if not st_size or not 0 < shndx < len(sections) or sections[shndx][0] != 1:
                continue  # SHT_PROGBITS only: the data is in the file
            name = obj[strtab + st_name:obj.index(b"\0", strtab + st_name)].decode()
            start = sections[shndx][1] + value
            symbols[name] = obj[start:start + st_size]
    return symbols


def main() -> None:
    numpy_dir = os.path.dirname(importlib.util.find_spec("numpy").origin)
    lib = os.path.join(numpy_dir, "random", "lib", "libnpyrandom.a")
    with open(lib, "rb") as fh:
        blob = fh.read()
    found = {}
    for member in ar_members(blob):
        symbols = elf_symbols(member)
        found.update((name, symbols[name]) for name in TABLES if name in symbols)
    tables = {}
    for name, code in TABLES.items():
        data = found.get(name)
        if data is None or len(data) != 8 * N:
            raise SystemExit(f"{lib}: no {N}-entry {name}")
        tables[name] = list(struct.unpack(f"<{N}{code}", data))
    body = ",\n".join(f" {json.dumps(name)}: {json.dumps(values)}"
                      for name, values in tables.items())
    with open(PATH, "w") as fh:
        fh.write("{\n" + body + "\n}\n")
    print(f"wrote {PATH}: {len(tables)} x {N} entries from {lib}")


if __name__ == "__main__":
    main()
