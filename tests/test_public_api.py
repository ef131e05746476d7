"""The curated public surface: explicit ``__all__`` and lazy serve exports.

Every name a user is told to import must resolve; the serving layer loads
lazily (so ``import repro`` stays cheap for batch scripts) but lands in the
same namespace.
"""

from __future__ import annotations

import subprocess
import sys

import repro
import repro.engine


class TestAllResolves:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_engine_all_resolves(self):
        for name in repro.engine.__all__:
            assert getattr(repro.engine, name) is not None, name

    def test_serving_entry_points_exported(self):
        from repro.serve import AsyncSessionClient, ServeConfig, SessionManager, SessionSpec

        assert repro.SessionManager is SessionManager
        assert repro.AsyncSessionClient is AsyncSessionClient
        assert repro.ServeConfig is ServeConfig
        assert repro.SessionSpec is SessionSpec

    def test_dense_point_store_reexported(self):
        assert repro.DensePointStore is repro.engine.DensePointStore
        assert not hasattr(repro, "PointStore")
        assert not hasattr(repro.engine, "PointStore")

    def test_query_proposal_reexported(self):
        from repro.engine.session import QueryProposal

        assert repro.QueryProposal is QueryProposal
        assert repro.engine.QueryProposal is QueryProposal

    def test_import_repro_does_not_load_serve(self):
        """The serving layer must stay off the eager import path."""

        code = "import repro, sys; sys.exit(1 if 'repro.serve' in sys.modules else 0)"
        proc = subprocess.run([sys.executable, "-c", code])
        assert proc.returncode == 0

