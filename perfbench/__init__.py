"""Host-time benchmark of the provenance pipeline (see ``run.py``)."""
