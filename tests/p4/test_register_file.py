"""``RegisterFile`` answers ``registers["name"]`` at C level (it is a
``dict``); what callers and the static analyzer rely on is unchanged."""

import pytest

from repro.p4.registers import RegisterFile


def test_unknown_name_raises_keyerror_with_the_same_text():
    regs = RegisterFile()
    regs.define("known", 4)
    with pytest.raises(KeyError) as excinfo:
        regs["ghost"]
    assert excinfo.value.args == ("no register array 'ghost'",)
    assert "ghost" not in regs          # the failed lookup defined nothing
    assert regs.names() == ["known"]


def test_redefinition_raises_and_keeps_the_first_array():
    regs = RegisterFile()
    first = regs.define("a", 4, bits=8, initial=3)
    with pytest.raises(ValueError, match="register array 'a' already defined"):
        regs.define("a", 16)
    assert regs["a"] is first and first.size == 4

