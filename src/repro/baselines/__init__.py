"""Baseline estimators: DNNMem (static), SchedTune (ML), LLMem (GPU probe)."""
