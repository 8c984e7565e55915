"""Anomaly detection on transaction networks via delta-BFlow (Section 6.3)."""

from repro.anomaly.detector import BurstDetector, ScanFinding, ScanReport
from repro.anomaly.hunting import NodeBurstScore, hunt_bursts, score_nodes
from repro.anomaly.report import format_case_study_table, format_finding_interval

__all__ = [
    "BurstDetector",
    "hunt_bursts",
    "score_nodes",
    "NodeBurstScore",
    "ScanFinding",
    "ScanReport",
    "format_case_study_table",
    "format_finding_interval",
]
