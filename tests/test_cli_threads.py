"""The census worker count is clamped to the CPUs this process may use."""

import argparse
import os

import pytest

from hfl import cli


def usable():
    return len(os.sched_getaffinity(0))


def test_threads_default_is_usable_cpus():
    assert cli._threads(argparse.Namespace()) == usable()
    assert cli._threads(argparse.Namespace(threads=None)) == usable()


def test_threads_flag_is_clamped():
    assert cli._threads(argparse.Namespace(threads=1)) == 1
    assert cli._threads(argparse.Namespace(threads=10**6)) == usable()


def test_threads_must_be_positive():
    with pytest.raises(cli.UsageError):
        cli._threads(argparse.Namespace(threads=0))
